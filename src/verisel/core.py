"""Core domain types: candidates, problems, and answer clusters.

Everything here is an immutable value object plus pure functions over them,
so pools can be evaluated concurrently without shared state.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

# Cluster key assigned to candidates whose answer extraction failed
# (empty answer_raw / answer_key). Such clusters are never selectable.
NO_ANSWER_KEY = "<none>"

_WS_RUN = re.compile(r"\s+")


class VeriselError(Exception):
    """Base class for domain errors raised by this package."""


class EmptyPoolError(VeriselError):
    """Raised when an operation receives an empty candidate pool."""


class IngestError(VeriselError):
    """Raised when input records violate a structural invariant."""


def _check_token_count(name: str, value: int) -> None:
    """A token count is a non-negative int; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"invalid token count: {name}={value!r}")


@dataclass(frozen=True)
class TokenStats:
    """Token counts for one candidate solution.

    output_tokens is the full generated length including any reasoning span;
    solution_tokens is the length after the reasoning span is removed and is
    what a verifier reads. verification_out_tokens, when present, is the
    number of tokens a generative verifier emits per verification pass.
    """

    prompt_tokens: int = 0
    output_tokens: int = 0
    solution_tokens: int = 0
    reasoning_budget: Optional[int] = None
    verification_out_tokens: Optional[int] = None

    def __post_init__(self) -> None:
        _check_token_count("prompt_tokens", self.prompt_tokens)
        _check_token_count("output_tokens", self.output_tokens)
        _check_token_count("solution_tokens", self.solution_tokens)
        if self.solution_tokens > self.output_tokens:
            raise ValueError(
                "invalid token count: solution_tokens "
                f"{self.solution_tokens} > output_tokens {self.output_tokens}"
            )
        if self.reasoning_budget is not None:
            _check_token_count("reasoning_budget", self.reasoning_budget)
        if self.verification_out_tokens is not None:
            _check_token_count("verification_out_tokens", self.verification_out_tokens)


# Score types, as json.loads gives numbers; a bool is a type of its own.
_NUMBER_TYPES = frozenset((int, float))
_FLOAT = frozenset((float,))


def _floats(values) -> Optional[tuple[float, ...]]:
    """values as floats if each is a finite int or float, else None."""
    try:
        values = tuple(values)
        if not _FLOAT.issuperset(map(type, values)):  # convert ints, refuse the rest
            if not _NUMBER_TYPES.issuperset(map(type, values)):
                return None
            values = tuple(map(float, values))
        return values if all(map(math.isfinite, values)) else None
    except (TypeError, OverflowError):  # not iterable; an int past float range
        return None


@dataclass(frozen=True)
class Candidate:
    """One sampled solution: its answer, optional label, and verifier scores.

    disc_score is the raw logit from a discriminative verifier; gen_scores
    are the per-verification scores from a generative verifier (length M,
    uniform within a problem).

    The one statement of a valid candidate; ValueError names the first
    broken rule: answer_raw is a string; correct is None or a bool; each
    score is a finite int or float (stored as a float), never a bool;
    gen_scores is non-empty; non-blank answer_raw has an answer_key, and
    no answer_key is NO_ANSWER_KEY; labeled correct needs an answer.
    """

    candidate_id: str
    answer_raw: str = ""
    answer_key: str = ""
    correct: Optional[bool] = None
    disc_score: Optional[float] = None
    gen_scores: Optional[tuple[float, ...]] = None
    token_stats: TokenStats = TokenStats()  # one shared, immutable default

    def __post_init__(self) -> None:
        cid, raw, disc = self.candidate_id, self.answer_raw, self.disc_score
        if not isinstance(raw, str):
            raise ValueError(f"candidate {cid!r}: answer must be a string, got {raw!r}")
        if self.correct is not None and not isinstance(self.correct, bool):
            raise ValueError(f"correct must be true or false, got {self.correct!r}")
        if disc is not None and (type(disc) is not float or not math.isfinite(disc)):
            if _floats((disc,)) is None:
                raise ValueError(f"disc_score must be a finite number, got {disc!r}")
            object.__setattr__(self, "disc_score", float(disc))
        if self.gen_scores is not None:
            gen = _floats(self.gen_scores)
            if gen is None:
                raise ValueError(
                    f"gen_scores must be finite numbers, got {self.gen_scores!r}")
            if not gen:
                raise ValueError(f"candidate {cid!r}: gen_scores must be non-empty")
            object.__setattr__(self, "gen_scores", gen)
        if raw.strip() and not self.answer_key:
            raise ValueError(
                f"candidate {cid!r}: answer_key empty but answer_raw is not blank")
        if self.answer_key == NO_ANSWER_KEY:
            raise ValueError(f"candidate {cid!r}: answer {NO_ANSWER_KEY!r} is reserved")
        if self.correct and not self.answer_key:
            raise ValueError(f"candidate {cid!r}: no answer, but labeled correct")

    @property
    def cluster_key(self) -> str:
        """Answer key used for clustering; failed extractions share NO_ANSWER_KEY."""
        return self.answer_key if self.answer_key else NO_ANSWER_KEY


@dataclass(frozen=True)
class Problem:
    """A pool of candidate solutions for one problem.

    Raises IngestError on the first broken invariant, in order: disc_score,
    then gen_scores, on all candidates or none; one label per answer among
    labeled candidates; unique candidate_ids; labels on all or none; one
    gen_scores length M. Nothing downstream checks these again.
    """

    problem_id: str
    candidates: tuple[Candidate, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.candidates, tuple):
            object.__setattr__(self, "candidates", tuple(self.candidates))
        cands = self.candidates
        for name in ("disc_score", "gen_scores"):
            present = sum(getattr(c, name) is not None for c in cands)
            if 0 < present < len(cands):
                raise IngestError(
                    f"problem {self.problem_id!r}: {name} present on {present} "
                    f"of {len(cands)} candidates (must be all or none)"
                )
        labels = [c.correct for c in cands]
        seen: dict[str, bool] = {}
        for c, label in zip(cands, labels):
            if label is not None and seen.setdefault(c.cluster_key, label) != label:
                raise IngestError(
                    f"problem {self.problem_id!r}: answer {c.cluster_key!r} "
                    "graded both correct and incorrect"
                )
        ids = [c.candidate_id for c in cands]
        if len(set(ids)) != len(ids):
            raise IngestError(
                f"problem {self.problem_id!r}: duplicate candidate_ids"
            )
        if 0 < labels.count(None) < len(cands):
            raise IngestError(
                f"problem {self.problem_id!r}: mixed labeling "
                "(all candidates must carry ground-truth labels, or none)"
            )
        lengths = {len(c.gen_scores) for c in cands if c.gen_scores}
        if len(lengths) > 1:
            raise IngestError(
                f"problem {self.problem_id!r}: inconsistent M "
                f"(gen_scores lengths {sorted(lengths)})"
            )

    def __len__(self) -> int:
        return len(self.candidates)

    @property
    def labeled(self) -> bool:
        return bool(self.candidates) and self.candidates[0].correct is not None


@dataclass(frozen=True)
class AnswerCluster:
    """Candidates sharing one canonical answer, with score aggregates.

    sum_score and mean_score aggregate the raw disc_score of the members and
    are None when the pool carries no discriminative scores.
    """

    answer_key: str
    member_ids: tuple[str, ...]
    n_a: int
    sum_score: Optional[float] = None
    mean_score: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_a < 1 or self.n_a != len(self.member_ids):
            raise ValueError(
                f"cluster {self.answer_key!r}: n_a={self.n_a} inconsistent "
                f"with {len(self.member_ids)} members"
            )

    @property
    def selectable(self) -> bool:
        return self.answer_key != NO_ANSWER_KEY


def canonicalize_answer(raw: str, mode: str = "exact") -> str:
    """Reduce an extracted answer to a deterministic canonical key.

    Mode "exact" trims surrounding whitespace and collapses internal
    whitespace runs. Mode "numeric" additionally parses a single number
    (integer, decimal, or fraction) and renders it in a fixed normal form:
    integers without a decimal point, non-integers as a reduced fraction
    p/q. Unparsable text falls back to the exact-mode key; this never fails.
    """
    if mode not in ("exact", "numeric"):
        raise ValueError(f"unknown canonicalization mode: {mode!r}")
    key = _WS_RUN.sub(" ", raw.strip())
    if mode == "exact" or not key:
        return key
    try:
        value = Fraction(key)
    except (ValueError, ZeroDivisionError):
        return key
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _sum_in_order(values: Iterable[float]) -> float:
    """Left-to-right float sum, as bincount adds (3.12's sum() compensates)."""
    total = 0.0
    for value in values:
        total += value
    return total


def cluster_by_answer(problem: Problem) -> list[AnswerCluster]:
    """Partition a problem's candidates into clusters by canonical answer.

    Clusters are returned in a deterministic order (n_a descending,
    answer_key ascending); selection reports its diagnostics in this order.
    Score aggregates are filled from disc_score when every member has one.
    """
    if not problem.candidates:
        raise EmptyPoolError(f"problem {problem.problem_id!r}: empty pool")
    return _clusters_of(problem.candidates)


def _clusters_of(candidates: Sequence[Candidate]) -> list[AnswerCluster]:
    """cluster_by_answer's body, for candidates not wrapped in a Problem."""
    members: dict[str, list[Candidate]] = {}
    for cand in candidates:
        members.setdefault(cand.cluster_key, []).append(cand)

    scored = all(c.disc_score is not None for c in candidates)
    clusters = []
    for key, cands in members.items():
        total = _sum_in_order(c.disc_score for c in cands) if scored else None
        clusters.append(
            AnswerCluster(
                answer_key=key,
                member_ids=tuple(c.candidate_id for c in cands),
                n_a=len(cands),
                sum_score=total,
                mean_score=None if total is None else total / len(cands),
            )
        )
    clusters.sort(key=lambda cl: (-cl.n_a, cl.answer_key))
    return clusters
