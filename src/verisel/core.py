"""Core domain types: candidates, problems, and answer clusters.

Everything here is an immutable value object plus pure functions over them,
so pools can be evaluated concurrently without shared state.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

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


def _check_int(name: str, value: int) -> None:
    """value is an int by exact type: a bool, a float or any other int
    subclass is not one."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def _check_number(name: str, value: float) -> None:
    """value is a real number (an int or a float, say), but not a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _check_token_count(name: str, value: int) -> None:
    """A token count is a non-negative int, by exact type: a bool, or any
    other int subclass, is not one."""
    if type(value) is not int or value < 0:
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
    broken rule: candidate_id is a non-empty string; answer_raw and
    answer_key are strings; correct is None or a bool; each score is a
    finite int or float (stored as a float), never a bool; gen_scores is
    non-empty; non-blank answer_raw has an answer_key, and no answer_key is
    NO_ANSWER_KEY; labeled correct needs an answer. cluster_key, set here
    and not a field, is the key clustering uses: answer_key, or
    NO_ANSWER_KEY for a failed extraction.
    """

    candidate_id: str
    answer_raw: str = ""
    answer_key: str = ""
    correct: Optional[bool] = None
    disc_score: Optional[float] = None
    gen_scores: Optional[tuple[float, ...]] = None
    token_stats: TokenStats = TokenStats()  # one shared, immutable default

    def __post_init__(self) -> None:
        cid, raw, key = self.candidate_id, self.answer_raw, self.answer_key
        disc = self.disc_score
        if not isinstance(cid, str) or not cid:
            raise ValueError(f"candidate_id must be a non-empty string, got {cid!r}")
        if not isinstance(raw, str):
            raise ValueError(f"candidate {cid!r}: answer must be a string, got {raw!r}")
        if not isinstance(key, str):
            raise ValueError(
                f"candidate {cid!r}: answer_key must be a string, got {key!r}")
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
        if raw.strip() and not key:
            raise ValueError(
                f"candidate {cid!r}: answer_key empty but answer_raw is not blank")
        if key == NO_ANSWER_KEY:
            raise ValueError(f"candidate {cid!r}: answer {NO_ANSWER_KEY!r} is reserved")
        if self.correct and not key:
            raise ValueError(f"candidate {cid!r}: no answer, but labeled correct")
        object.__setattr__(self, "cluster_key", key or NO_ANSWER_KEY)


class AnswerColumns(NamedTuple):
    """A pool's answers as columns: each candidate's answer code (codes
    number the cluster keys in ascending order), the code of NO_ANSWER_KEY
    or -1, each code's label (None if unlabeled), and each code's key."""

    codes: np.ndarray
    none_code: int
    correct: Optional[np.ndarray]
    keys: tuple[str, ...]


def _answer_columns(candidates: Sequence[Candidate]) -> AnswerColumns:
    """The candidates' answers as columns (a pool's, or a slate's)."""
    graded = {c.cluster_key: c.correct for c in candidates}  # one per key
    keys = tuple(sorted(graded))
    code_of = {key: i for i, key in enumerate(keys)}
    return AnswerColumns(
        np.array([code_of[c.cluster_key] for c in candidates], np.int32),
        code_of.get(NO_ANSWER_KEY, -1),
        None if candidates[0].correct is None
        else np.array([graded[key] for key in keys], bool),
        keys,
    )


@dataclass(frozen=True)
class Problem:
    """A pool of candidate solutions for one problem.

    problem_id is a non-empty string, else ValueError. Then EmptyPoolError
    for no candidates, or IngestError on the first broken invariant, in
    order: disc_score, then gen_scores, on all candidates or none; one
    label per answer among labeled candidates; unique candidate_ids;
    labels on all or none; one gen_scores length M. Nothing downstream
    checks these again.
    """

    problem_id: str
    candidates: tuple[Candidate, ...]

    def __post_init__(self) -> None:
        pid = self.problem_id
        if not isinstance(pid, str) or not pid:
            raise ValueError(f"problem_id must be a non-empty string, got {pid!r}")
        if not isinstance(self.candidates, tuple):
            object.__setattr__(self, "candidates", tuple(self.candidates))
        cands = self.candidates
        if not cands:
            raise EmptyPoolError(f"problem {pid!r}: empty pool")
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
        return self.candidates[0].correct is not None

    @cached_property
    def answer_columns(self) -> AnswerColumns:
        """Built on first use, then kept; not a field, so repr and == ignore it."""
        return _answer_columns(self.candidates)

    @cached_property
    def _memo(self) -> dict:
        """What slate evaluation reads of this pool, kept by evaluate.py."""
        return {}


@dataclass(frozen=True)
class AnswerCluster:
    """Candidates sharing one canonical answer, in pool order.

    member_ids, n_a and sum_score are the members'; sum_score sums their
    raw disc_score in order, and is None when they carry none.
    """

    answer_key: str
    members: tuple[Candidate, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"cluster {self.answer_key!r}: no members")

    @property
    def member_ids(self) -> tuple[str, ...]:
        return tuple(c.candidate_id for c in self.members)

    @property
    def n_a(self) -> int:
        return len(self.members)

    @property
    def sum_score(self) -> Optional[float]:
        scores = [c.disc_score for c in self.members]
        return None if None in scores else _sum_in_order(scores)

    @property
    def selectable(self) -> bool:
        return self.answer_key != NO_ANSWER_KEY


def canonicalize_answer(raw: str, mode: str = "exact") -> str:
    """Reduce an extracted answer to a deterministic canonical key.

    Mode "exact" trims surrounding whitespace and collapses internal
    whitespace runs. Mode "numeric" additionally parses a single number
    (integer, decimal, or fraction) and renders it in a fixed normal form:
    integers without a decimal point, non-integers as a reduced fraction
    p/q. Unparsable text, and a number whose normal form would have more
    digits than sys.get_int_max_str_digits() allows, fall back to the
    exact-mode key; this never fails. Under that limit the time a call
    takes is bounded by the answer's length, whatever its exponent.
    """
    if mode not in ("exact", "numeric"):
        raise ValueError(f"unknown canonicalization mode: {mode!r}")
    key = _WS_RUN.sub(" ", raw.strip())
    if mode == "exact" or not key:
        return key
    try:
        value = Fraction(_capped_exponent(key))
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except (ValueError, ZeroDivisionError):  # not a number; too many digits
        return key


# A decimal exponent as Fraction spells it, at the end of the text.
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\Z")


def _capped_exponent(key: str) -> str:
    """key with a decimal exponent past len(key) + the digit limit replaced
    by one just past it, before Fraction computes 10**exponent.

    Such an exponent puts the normal form of any nonzero number past the
    limit (with at most len(key) digits of mantissa, scaling cannot bring
    it back), and zero is zero at either exponent, so the key is the same.
    """
    found = _EXPONENT.search(key)
    if found is None:
        return key
    limit = sys.get_int_max_str_digits()
    if not limit:  # no limit set: nothing to fall back on
        return key
    cap = len(key) + limit
    try:
        if int(found[1]) <= cap:
            return key
    except ValueError:  # too many digits to read: Fraction refuses it as fast
        return key
    return f"{key[:found.start(1)]}{cap + 1}"


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
    """
    members: dict[str, list[Candidate]] = {}
    for cand in problem.candidates:
        members.setdefault(cand.cluster_key, []).append(cand)
    clusters = [AnswerCluster(key, tuple(cands)) for key, cands in members.items()]
    clusters.sort(key=lambda cl: (-cl.n_a, cl.answer_key))
    return clusters
