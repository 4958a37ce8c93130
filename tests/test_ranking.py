"""Ranking loss, its gradient, learnability filtering, score margin."""

import math

import numpy as np
import pytest

from verisel import (
    Candidate,
    Problem,
    ScoredGroup,
    bt_loss,
    bt_loss_gradient,
    filter_learnable_groups,
    group_from_problem,
    score_margin,
)
from verisel.ranking import audit_gradient


def group(scores, labels):
    return ScoredGroup(tuple(scores), tuple(labels))


def random_group(rng, min_size=2, max_size=16):
    """Mixed-label group with scores in [-4, 4]."""
    size = int(rng.integers(min_size, max_size + 1))
    labels = np.zeros(size, dtype=bool)
    labels[: int(rng.integers(1, size))] = True
    rng.shuffle(labels)
    scores = rng.uniform(-4, 4, size)
    return group(scores, (bool(b) for b in labels))


def fd_gradient(g, lam, h=1e-5):
    out = []
    for k in range(len(g.scores)):
        up = list(g.scores)
        up[k] += h
        down = list(g.scores)
        down[k] -= h
        out.append(
            (bt_loss(group(up, g.labels), lam)
             - bt_loss(group(down, g.labels), lam)) / (2 * h)
        )
    return np.array(out)


class TestLoss:
    def test_equal_scores_give_ln2(self):
        for c in (-3.0, 0.0, 1.7):
            assert bt_loss(group([c, c], [True, False])) == pytest.approx(
                math.log(2), abs=1e-12
            )

    def test_separated_pair(self):
        assert bt_loss(group([2.0, 0.0], [True, False])) == pytest.approx(
            math.log(1 + math.exp(-2)), abs=1e-12
        )

    def test_regularizer_adds_mean_square(self):
        assert bt_loss(group([1.0, -1.0], [True, False]), lam=1.0) == \
            pytest.approx(math.log(1 + math.exp(-2)) + 0.5, abs=1e-12)

    def test_all_pairs_averaged(self):
        # P={2,0}, N={1}: pairs (2-1) and (0-1), averaged
        expected = 0.5 * (
            math.log(1 + math.exp(-1)) + math.log(1 + math.exp(1))
        )
        assert bt_loss(group([2.0, 0.0, 1.0], [True, True, False])) == \
            pytest.approx(expected, abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            g = random_group(rng)
            base = bt_loss(g, lam=0.0)
            for c in (-7.0, 0.3, 50.0):
                shifted = group([s + c for s in g.scores], g.labels)
                assert bt_loss(shifted, lam=0.0) == pytest.approx(
                    base, abs=1e-10
                )

    def test_monotone_in_correct_scores(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            g = random_group(rng)
            base = bt_loss(g)
            k = next(i for i, b in enumerate(g.labels) if b)
            bumped = list(g.scores)
            bumped[k] += float(rng.uniform(0.1, 2.0))
            assert bt_loss(group(bumped, g.labels)) <= base + 1e-12

    def test_positive_and_vanishing(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            assert bt_loss(random_group(rng)) >= 0.0
        wide = bt_loss(group([60.0, 0.0], [True, False]))
        assert 0.0 <= wide < 1e-12

    def test_extreme_logits_stay_finite(self):
        assert math.isfinite(bt_loss(group([800.0, -800.0], [True, False])))
        assert math.isfinite(bt_loss(group([-800.0, 800.0], [True, False])))

    def test_unlearnable_rejected(self):
        with pytest.raises(ValueError, match="no learnable signal"):
            bt_loss(group([1.0, 2.0], [True, True]))
        with pytest.raises(ValueError, match="no learnable signal"):
            bt_loss(group([1.0], [False]))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="invalid lambda"):
            bt_loss(group([1.0, 0.0], [True, False]), lam=-1.0)


class TestGradient:
    def test_symmetric_pair(self):
        grad = bt_loss_gradient(group([0.0, 0.0], [True, False]))
        np.testing.assert_allclose(grad, [-0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(
            grad, fd_gradient(group([0.0, 0.0], [True, False]), 0.0), atol=1e-6
        )

    def test_separated_pair(self):
        s = 1 / (1 + math.exp(2))
        grad = bt_loss_gradient(group([2.0, 0.0], [True, False]))
        np.testing.assert_allclose(grad, [-s, s], atol=1e-12)

    def test_entries_sum_to_regularizer_trace(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            g = random_group(rng)
            assert bt_loss_gradient(g, 0.0).sum() == pytest.approx(0, abs=1e-12)
            lam = 0.7
            expected = lam / len(g.scores) * sum(g.scores)
            assert bt_loss_gradient(g, lam).sum() == pytest.approx(
                expected, abs=1e-10
            )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            g = random_group(rng)
            for lam in (0.0, 0.01, 1.0):
                grad = bt_loss_gradient(g, lam)
                fd = fd_gradient(g, lam)
                rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
                assert rel.max() < 1e-5

    def test_audit(self):
        checks, worst = audit_gradient(1)
        assert checks == 9116
        assert 0.0 < worst < 1e-5


class TestMargin:
    def test_constant_groups(self):
        assert score_margin(group([1, 1, 0], [True, True, False])) == 1.0

    def test_two_points(self):
        assert score_margin(group([0.9, 0.2], [True, False])) == \
            pytest.approx(0.7)

    def test_translation_invariant_scale_linear(self):
        g = group([1.9, 1.2], [True, False])
        assert score_margin(g) == pytest.approx(0.7)
        doubled = group([3.8, 2.4], [True, False])
        assert score_margin(doubled) == pytest.approx(1.4)

    def test_needs_both_labels(self):
        with pytest.raises(ValueError, match="no learnable signal"):
            score_margin(group([1.0], [True]))


class TestFiltering:
    def test_drops_unmixed(self):
        groups = [
            group([1, 2, 3], [True, True, True]),
            group([1, 2], [False, False]),
            group([1, 2], [True, False]),
        ]
        kept = filter_learnable_groups(groups)
        assert kept == [groups[2]]

    def test_accepts_problems(self):
        problem = Problem(
            problem_id="q",
            candidates=(
                Candidate(candidate_id="c0", answer_raw="a", answer_key="a",
                          correct=True, disc_score=1.0),
                Candidate(candidate_id="c1", answer_raw="b", answer_key="b",
                          correct=False, disc_score=-1.0),
            ),
        )
        (kept,) = filter_learnable_groups([problem])
        assert kept.scores == (1.0, -1.0) and kept.labels == (True, False)

    def test_group_from_problem_requires_labels_and_scores(self):
        unlabeled = Problem(
            problem_id="q",
            candidates=(
                Candidate(candidate_id="c0", answer_raw="a", answer_key="a",
                          disc_score=1.0),
            ),
        )
        with pytest.raises(ValueError, match="labels required"):
            group_from_problem(unlabeled)
        unscored = Problem(
            problem_id="q",
            candidates=(
                Candidate(candidate_id="c0", answer_raw="a", answer_key="a",
                          correct=True),
            ),
        )
        with pytest.raises(ValueError, match="scores required"):
            group_from_problem(unscored)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            ScoredGroup((1.0,), (True, False))
        with pytest.raises(ValueError, match="equal-length"):
            ScoredGroup((), ())
