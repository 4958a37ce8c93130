"""Deterministic synthetic candidate pools for desk-scale evaluation.

Each problem has one correct answer shared by all correct candidates; wrong
candidates scatter over a configurable number of wrong answers. Verifier
scores are Beta-distributed conditioned on the label, so the gap between
the two distributions sets the verifier's quality: Beta(8,2) against
Beta(2,8) is a strong verifier, identical parameters an uninformative one.

Under iid label-conditioned scores whose likelihood ratio rises with the
score (as it does for the defaults), best-of-N can only improve with N. An
opt-in confidently-wrong tail models the verifier exploitation that makes
best-of-N degrade instead: a share ``wrong_tail`` of the incorrect
candidates take their disc_score from Beta(20,1), which sits above the
correct distribution, so the chance of drawing a wrong answer the
verifier ranks first grows with the slate. The tail touches disc_score
only; gen_scores stay label-conditioned, since the failure modelled is that
of a cheap discriminative verifier, not of costlier generative checks.

Generation is keyed per (seed, problem index), so pools are reproducible
candidate-for-candidate regardless of how many problems are requested or in
what order they are materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Candidate, Problem, TokenStats

# Beta parameters of the confidently-wrong tail's disc_score.
_WRONG_TAIL_DIST = (20.0, 1.0)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic dataset."""

    seed: int
    n_problems: int
    pool_size: int
    p_correct: float
    answer_space: int = 1
    correct_dist: tuple[float, float] = (8.0, 2.0)
    incorrect_dist: tuple[float, float] = (2.0, 8.0)
    gen_verifications: int = 0
    prompt_tokens: int = 64
    output_tokens: int = 512
    solution_tokens: int = 128
    verification_out_tokens: Optional[int] = None
    wrong_tail: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**63:
            raise ValueError(f"seed out of range [0, 2**63): {self.seed}")
        if self.n_problems < 1 or self.pool_size < 1 or self.answer_space < 1:
            raise ValueError(
                "n_problems, pool_size, and answer_space must be positive"
            )
        if not 0.0 <= self.p_correct <= 1.0:
            raise ValueError(f"p_correct out of [0,1]: {self.p_correct}")
        if not 0.0 <= self.wrong_tail <= 1.0:
            raise ValueError(f"wrong_tail out of [0,1]: {self.wrong_tail}")
        for name in ("correct_dist", "incorrect_dist"):
            a, b = getattr(self, name)
            if a <= 0 or b <= 0:
                raise ValueError(f"{name} parameters must be positive: ({a}, {b})")
        if self.gen_verifications < 0:
            raise ValueError(
                f"invalid verification count: {self.gen_verifications}"
            )


def _problem_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def generate_pool(spec: SynthSpec) -> list[Problem]:
    """Materialize the dataset: fully labeled, fully scored problems.

    Per candidate: correct with probability p_correct; correct candidates
    answer "c", wrong ones draw uniformly from "w0".."w{answer_space-1}";
    disc_score and any gen_scores come from the label's Beta distribution.
    With wrong_tail > 0, each incorrect candidate's disc_score is replaced,
    with probability wrong_tail, by a draw from Beta(20,1); gen_scores are
    left as they are. Token counts are the SynthSpec constants,
    identical on every candidate.

    Per problem, draws come from one Philox stream in a fixed order: labels,
    wrong answers, disc scores, gen scores, then (only when wrong_tail > 0)
    the tail's membership and its scores. A spec without the tail thus
    consumes no extra draws, and one with it keeps the labels, answers,
    gen_scores and correct candidates' scores of the tail-free spec.
    """
    stats = TokenStats(
        prompt_tokens=spec.prompt_tokens,
        output_tokens=spec.output_tokens,
        solution_tokens=spec.solution_tokens,
        verification_out_tokens=spec.verification_out_tokens,
    )
    problems = []
    for p in range(spec.n_problems):
        rng = _problem_rng(spec.seed, p)
        correct = rng.random(spec.pool_size) < spec.p_correct
        wrong_pick = rng.integers(spec.answer_space, size=spec.pool_size)
        ca, cb = spec.correct_dist
        ia, ib = spec.incorrect_dist
        scores = np.where(
            correct,
            rng.beta(ca, cb, size=spec.pool_size),
            rng.beta(ia, ib, size=spec.pool_size),
        )
        gen_scores = None
        if spec.gen_verifications > 0:
            shape = (spec.pool_size, spec.gen_verifications)
            gen_scores = np.where(
                correct[:, None],
                rng.beta(ca, cb, size=shape),
                rng.beta(ia, ib, size=shape),
            )
        if spec.wrong_tail > 0:
            in_tail = ~correct & (rng.random(spec.pool_size) < spec.wrong_tail)
            ta, tb = _WRONG_TAIL_DIST
            scores = np.where(
                in_tail, rng.beta(ta, tb, size=spec.pool_size), scores
            )

        candidates = []
        for i in range(spec.pool_size):
            answer = "c" if correct[i] else f"w{wrong_pick[i]}"
            candidates.append(
                Candidate(
                    candidate_id=f"s{i:03d}",
                    answer_raw=answer,
                    answer_key=answer,
                    correct=bool(correct[i]),
                    disc_score=float(scores[i]),
                    gen_scores=None if gen_scores is None
                    else tuple(float(g) for g in gen_scores[i]),
                    token_stats=stats,
                )
            )
        problems.append(
            Problem(problem_id=f"syn-{p:04d}", candidates=tuple(candidates))
        )
    return problems
