"""Synthetic pool generator: determinism, distributions, method ordering."""

import re

import numpy as np
import pytest

from verisel import (
    EvalConfig,
    SynthSpec,
    bootstrap_accuracy,
    generate_pool,
)


def spec(**kw):
    base = dict(seed=11, n_problems=6, pool_size=16, p_correct=0.5)
    base.update(kw)
    return SynthSpec(**base)


class TestSpecValidation:
    def test_bounds(self):
        with pytest.raises(ValueError, match="must be positive"):
            spec(n_problems=0)
        with pytest.raises(ValueError, match="must be positive"):
            spec(pool_size=0)
        with pytest.raises(ValueError, match="must be positive"):
            spec(answer_space=0)
        with pytest.raises(ValueError, match="p_correct"):
            spec(p_correct=1.5)
        with pytest.raises(ValueError, match="correct_dist"):
            spec(correct_dist=(0.0, 2.0))
        with pytest.raises(ValueError, match="invalid verification count"):
            spec(gen_verifications=-1)

    def test_seed_out_of_range(self):
        # numpy's key goes through float64 from 2**63 on, so 2**63 and
        # 2**63 + 1 would give one dataset
        for seed in (-1, 2**63, 2**63 + 1, 2**64):
            with pytest.raises(ValueError, match=re.escape(
                f"seed out of range [0, 2**63): {seed}"
            )):
                spec(seed=seed)
        assert generate_pool(spec(seed=2**63 - 1, n_problems=1))

    def test_wrong_tail_out_of_range(self):
        for share in (-0.1, 1.5):
            with pytest.raises(ValueError, match="wrong_tail"):
                spec(wrong_tail=share)


class TestDeterminism:
    def test_same_spec_same_pools(self):
        assert generate_pool(spec(gen_verifications=2)) == \
            generate_pool(spec(gen_verifications=2))

    def test_problems_keyed_by_index(self):
        # a problem's content depends on (seed, index), not on how many
        # problems were requested
        few = generate_pool(spec(n_problems=3))
        many = generate_pool(spec(n_problems=6))
        assert many[:3] == few

    def test_seed_changes_content(self):
        assert generate_pool(spec()) != generate_pool(spec(seed=12))

    @pytest.mark.parametrize("tail", [{}, {"wrong_tail": 0.0}])
    def test_pinned_draws(self, tail):
        # Values from the generator before the wrong tail existed: a change
        # to the draw order, or a tail-free spec drawing extra, shows here.
        problems = generate_pool(spec(n_problems=2, pool_size=4, answer_space=3,
                                      gen_verifications=2, **tail))
        got = [(c.answer_key, c.disc_score, c.gen_scores)
               for p in problems for c in p.candidates]
        want = [
            ("c", 0.7746384180710243, (0.8927580793394362, 0.8713173107870361)),
            ("w1", 0.3915087361351145, (0.0056506456466947725, 0.07692312741404231)),
            ("w2", 0.15370199677534654, (0.05997766228371487, 0.033630847344322)),
            ("w0", 0.2855295399923053, (0.21707967284465382, 0.09396365563505281)),
            ("c", 0.6168036354294607, (0.6958463579562189, 0.6843555601386888)),
            ("c", 0.5551267489974386, (0.7349695901466047, 0.7883302545179097)),
            ("w2", 0.1402803726492288, (0.14886339873859591, 0.05535390156139784)),
            ("c", 0.8252350540836375, (0.7719131998253096, 0.9083973160000821)),
        ]
        assert [k for k, _, _ in got] == [k for k, _, _ in want]
        assert [s for _, s, _ in got] == pytest.approx([s for _, s, _ in want],
                                                       abs=1e-12)
        assert [g for _, _, g in got] == [pytest.approx(g, abs=1e-12)
                                          for _, _, g in want]


class TestStructure:
    def test_shape_and_ids(self):
        problems = generate_pool(spec(gen_verifications=3))
        assert [p.problem_id for p in problems] == \
            [f"syn-{i:04d}" for i in range(6)]
        for p in problems:
            assert len(p.candidates) == 16
            assert [c.candidate_id for c in p.candidates] == \
                [f"s{i:03d}" for i in range(16)]
            for c in p.candidates:
                assert c.correct == (c.answer_key == "c")
                assert 0.0 <= c.disc_score <= 1.0
                assert len(c.gen_scores) == 3
                assert all(0.0 <= g <= 1.0 for g in c.gen_scores)
                assert c.token_stats.prompt_tokens == 64
                assert c.token_stats.output_tokens == 512
                assert c.token_stats.solution_tokens == 128

    def test_wrong_answers_span_answer_space(self):
        problems = generate_pool(
            spec(answer_space=4, n_problems=20, p_correct=0.3)
        )
        wrong = {
            c.answer_key
            for p in problems for c in p.candidates if not c.correct
        }
        assert wrong == {"w0", "w1", "w2", "w3"}

    def test_no_gen_scores_by_default(self):
        problems = generate_pool(spec())
        assert all(c.gen_scores is None
                   for p in problems for c in p.candidates)

    def test_degenerate_label_rates(self):
        all_right = generate_pool(spec(p_correct=1.0))
        assert all(c.correct for p in all_right for c in p.candidates)
        all_wrong = generate_pool(spec(p_correct=0.0))
        assert not any(c.correct for p in all_wrong for c in p.candidates)


class TestDistributions:
    def test_beta_means_within_three_standard_errors(self):
        problems = generate_pool(
            spec(n_problems=100, pool_size=256, gen_verifications=2)
        )
        for label, (a, b) in ((True, (8.0, 2.0)), (False, (2.0, 8.0))):
            scores = np.array([
                c.disc_score
                for p in problems for c in p.candidates if c.correct == label
            ])
            assert scores.size > 10_000
            mean = a / (a + b)
            var = a * b / ((a + b) ** 2 * (a + b + 1))
            se = np.sqrt(var / scores.size)
            assert abs(scores.mean() - mean) < 3 * se
            gen = np.array([
                g
                for p in problems for c in p.candidates
                if c.correct == label
                for g in c.gen_scores
            ])
            se = np.sqrt(var / gen.size)
            assert abs(gen.mean() - mean) < 3 * se

    def test_label_rate_tracks_p_correct(self):
        problems = generate_pool(spec(n_problems=50, pool_size=256,
                                      p_correct=0.3))
        labels = np.array([c.correct for p in problems for c in p.candidates])
        se = np.sqrt(0.3 * 0.7 / labels.size)
        assert abs(labels.mean() - 0.3) < 3 * se

    def test_wrong_tail_rescores_only_incorrect_disc_scores(self):
        kw = dict(n_problems=50, pool_size=256, gen_verifications=2)
        base = [c for p in generate_pool(spec(**kw)) for c in p.candidates]
        tail = [c for p in generate_pool(spec(wrong_tail=0.3, **kw))
                for c in p.candidates]
        changed = []
        for b, t in zip(base, tail, strict=True):
            assert (t.candidate_id, t.answer_key, t.correct, t.gen_scores) \
                == (b.candidate_id, b.answer_key, b.correct, b.gen_scores)
            if b.correct:
                assert t.disc_score == b.disc_score
            else:
                changed.append(t.disc_score != b.disc_score)
        changed = np.array(changed)
        assert changed.size > 5_000
        # a tail draw equal to the replaced score has probability zero
        se = np.sqrt(0.3 * 0.7 / changed.size)
        assert abs(changed.mean() - 0.3) < 3 * se


class TestMethodOrdering:
    """A strong verifier must make verifier-weighted rules beat plurality;
    an uninformative one must not let BoN beat it."""

    def test_informative_scores_lift_weighted_rules(self):
        problems = generate_pool(
            SynthSpec(seed=21, n_problems=200, pool_size=64, p_correct=0.5)
        )
        accs = {}
        for method in ("sc", "wsc", "pv"):
            accs[method] = bootstrap_accuracy(
                problems, EvalConfig(n=16, method=method, draws=200, seed=2)
            ).mean
        assert accs["wsc"] > accs["sc"]
        assert accs["pv"] > accs["sc"]

    def test_uninformative_scores_leave_bon_at_chance(self):
        problems = generate_pool(
            SynthSpec(
                seed=22, n_problems=200, pool_size=32, p_correct=0.55,
                correct_dist=(4.0, 4.0), incorrect_dist=(4.0, 4.0),
            )
        )
        sc = bootstrap_accuracy(
            problems, EvalConfig(n=32, method="sc", draws=200, seed=2)
        ).mean
        bon = bootstrap_accuracy(
            problems, EvalConfig(n=32, method="bon", draws=200, seed=2)
        ).mean
        # plurality concentrates around the majority answer; a scoreless
        # argmax stays near the per-candidate rate
        assert bon <= sc
