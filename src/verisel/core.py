"""Core domain types: candidates, problems, and answer clusters.

Everything here is an immutable value object plus pure functions over them,
so pools can be evaluated concurrently without shared state. Every
Problem stores its pool in one form, as columns, which one step checks and
builds whether the pool was built in code or read by ingest, and a Problem
of columns keeps no Candidate copy of its pool; the rules of
a valid candidate and of a valid problem are stated once, on columns, and
a Candidate built in code is checked as a one-row column.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import FrozenInstanceError, dataclass, fields
from functools import cached_property, partial
from itertools import chain, repeat
from operator import attrgetter, is_not, le
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
    if type(value) in (float, int):  # the common case, without the ABC check
        return
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _check_token_count(name: str, value: int) -> None:
    """A token count is a non-negative int, by exact type: a bool, or any
    other int subclass, is not one."""
    if not _counts_hold((value,)):
        raise ValueError(f"invalid token count: {name}={value!r}")


# Exact types, as json.loads gives values; a bool is a type of its own.
_INT = frozenset((int,))
_NUMBER_TYPES = frozenset((int, float))
_SCORE_TYPES = frozenset((int, float, type(None)))
_FLOAT = frozenset((float,))
_STR = frozenset((str,))
_LABEL_TYPES = frozenset((bool, type(None)))
_present = partial(is_not, None)


def _counts_hold(values: Sequence, optional: bool = False) -> bool:
    """Each value is a token count (or, if optional, None)."""
    if optional:
        values = list(filter(_present, values))
        if not values:
            return True
    return _of_types(values, _INT) and min(values) >= 0


def _finite(values: Sequence, types: frozenset = _NUMBER_TYPES) -> bool:
    """Each value is a finite int or float, by exact type (or, when types
    allow it, None)."""
    try:
        if len(values) == 1:  # the same test, without the bulk set-up
            value = values[0]
            return type(value) in types and (value is None or math.isfinite(value))
        if not types.issuperset(map(type, values)):
            return False
        return all(map(math.isfinite,
                       values if types is _NUMBER_TYPES else filter(_present, values)))
    except OverflowError:  # an int past float range
        return False


def _finite_rows(rows: Sequence) -> bool:
    """Each row is None or holds finite ints and floats, by exact type."""
    try:
        if len(rows) == 1:
            row = rows[0]
            return row is None or _finite(
                row if type(row) in (tuple, list) else list(row))
        return _finite(list(chain.from_iterable(filter(_present, rows))))
    except TypeError:  # a row that is not a sequence
        return False


def _floats(values) -> Optional[tuple[float, ...]]:
    """values as floats if each is a finite int or float, else None."""
    try:
        values = tuple(values)
    except TypeError:  # not iterable
        return None
    if _FLOAT.issuperset(map(type, values)) and all(map(math.isfinite, values)):
        return values  # finite floats already
    return tuple(map(float, values)) if _finite(values) else None


def _of_types(values: Sequence, types: frozenset) -> bool:
    """Each value's exact type is one of types."""
    if len(values) == 1:
        return type(values[0]) in types
    return types.issuperset(map(type, values))


def _texts(values: Sequence) -> bool:
    """Each value is a str (or a subclass of it)."""
    if len(values) == 1:
        return isinstance(values[0], str)
    return (_STR.issuperset(map(type, values))
            or all(map(isinstance, values, repeat(str))))


def _token_fault(prompt, output, solution, budget, verify) -> Optional[str]:
    """The one statement of valid token counts, on columns (one entry per
    candidate): None if every row holds, else the first broken rule's
    message, about the first row. In order: prompt_tokens, output_tokens
    and solution_tokens are counts; solution_tokens <= output_tokens;
    reasoning_budget and verification_out_tokens are None or counts."""
    columns = (prompt, output, solution, budget, verify)
    for i, (name, values) in enumerate(zip(_TOKEN_FIELDS, columns)):
        if i == 3 and not all(map(le, solution, output)):
            return (f"invalid token count: solution_tokens {solution[0]} > "
                    f"output_tokens {output[0]}")
        if not _counts_hold(values, optional=i >= 3):
            return f"invalid token count: {name}={values[0]!r}"
    return None


def _candidate_fault(ids, raws, keys, labels, discs, gens) -> Optional[str]:
    """The one statement of a valid candidate, on columns (one entry per
    candidate): None if every row holds, else the first broken rule's
    message, about the first row. In order: candidate_id is a non-empty
    string; answer_raw and answer_key are strings; correct is None or a
    bool; each score is None or a finite int or float, never a bool;
    gen_scores is non-empty; non-blank answer_raw has an answer_key, and no
    answer_key is NO_ANSWER_KEY; labeled correct needs an answer."""
    if not (_texts(ids) and "" not in ids):
        return f"candidate_id must be a non-empty string, got {ids[0]!r}"
    cid = ids[0]
    if not _texts(raws):
        return f"candidate {cid!r}: answer must be a string, got {raws[0]!r}"
    if not _texts(keys):
        return f"candidate {cid!r}: answer_key must be a string, got {keys[0]!r}"
    if not _of_types(labels, _LABEL_TYPES):
        return f"correct must be true or false, got {labels[0]!r}"
    if not _finite(discs, _SCORE_TYPES):
        return f"disc_score must be a finite number, got {discs[0]!r}"
    if not _finite_rows(gens):
        return f"gen_scores must be finite numbers, got {gens[0]!r}"
    if not all(map(len, filter(_present, gens))):
        return f"candidate {cid!r}: gen_scores must be non-empty"
    unanswered = [(raw, label) for raw, key, label in zip(raws, keys, labels)
                  if not key] if "" in keys else None
    if unanswered and any(raw.strip() for raw, _ in unanswered):
        return f"candidate {cid!r}: answer_key empty but answer_raw is not blank"
    if NO_ANSWER_KEY in keys:
        return f"candidate {cid!r}: answer {NO_ANSWER_KEY!r} is reserved"
    if unanswered and any(label for _, label in unanswered):
        return f"candidate {cid!r}: no answer, but labeled correct"
    return None


def _unchecked(cls, **values):
    """An instance of a frozen dataclass holding values, with no checks:
    for values that were checked as columns."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


@dataclass(frozen=True, init=False)
class TokenStats:
    """Token counts for one candidate solution.

    output_tokens is the full generated length including any reasoning span;
    solution_tokens is the length after the reasoning span is removed and is
    what a verifier reads. verification_out_tokens, when present, is the
    number of tokens a generative verifier emits per verification pass.
    Checked as a one-row column by _token_fault.
    """

    prompt_tokens: int = 0
    output_tokens: int = 0
    solution_tokens: int = 0
    reasoning_budget: Optional[int] = None
    verification_out_tokens: Optional[int] = None

    def __init__(self, prompt_tokens: int = 0, output_tokens: int = 0,
                 solution_tokens: int = 0, reasoning_budget: Optional[int] = None,
                 verification_out_tokens: Optional[int] = None) -> None:
        fault = _token_fault((prompt_tokens,), (output_tokens,), (solution_tokens,),
                             (reasoning_budget,), (verification_out_tokens,))
        if fault:
            raise ValueError(fault)
        self.__dict__.update(
            prompt_tokens=prompt_tokens, output_tokens=output_tokens,
            solution_tokens=solution_tokens, reasoning_budget=reasoning_budget,
            verification_out_tokens=verification_out_tokens,
        )


_TOKEN_FIELDS = tuple(f.name for f in fields(TokenStats))
_NO_TOKENS = TokenStats()  # one shared, immutable default


@dataclass(frozen=True, init=False)
class Candidate:
    """One sampled solution: its answer, optional label, and verifier scores.

    disc_score is the score from a discriminative verifier, which the
    default sigmoid transform reads as a logit (synth writes probabilities
    in (0, 1), which it maps into (0.5, 0.731)); gen_scores are the
    per-verification scores from a generative verifier (length M, uniform
    within a problem). Scores are stored as floats.

    Checked as a one-row column by _candidate_fault, the one statement of a
    valid candidate; ValueError names the first broken rule. cluster_key,
    set here and not a field, is the key clustering uses: answer_key, or
    NO_ANSWER_KEY for a failed extraction.
    """

    candidate_id: str
    answer_raw: str = ""
    answer_key: str = ""
    correct: Optional[bool] = None
    disc_score: Optional[float] = None
    gen_scores: Optional[tuple[float, ...]] = None
    token_stats: TokenStats = _NO_TOKENS

    def __init__(self, candidate_id: str, answer_raw: str = "", answer_key: str = "",
                 correct: Optional[bool] = None, disc_score: Optional[float] = None,
                 gen_scores: Optional[Iterable[float]] = None,
                 token_stats: TokenStats = _NO_TOKENS) -> None:
        if gen_scores is not None and type(gen_scores) not in (tuple, list):
            try:
                if iter(gen_scores) is gen_scores:  # an iterator is read once
                    gen_scores = tuple(gen_scores)
            except TypeError:  # not iterable: the rules refuse it
                pass
        fault = _candidate_fault((candidate_id,), (answer_raw,), (answer_key,),
                                 (correct,), (disc_score,), (gen_scores,))
        if fault:
            raise ValueError(fault)
        if disc_score is not None and type(disc_score) is not float:
            disc_score = float(disc_score)
        if gen_scores is not None and (type(gen_scores) is not tuple
                                       or not _FLOAT.issuperset(map(type, gen_scores))):
            gen_scores = tuple(map(float, gen_scores))
        _fill(self, candidate_id, answer_raw, answer_key, correct, disc_score,
              gen_scores, token_stats)


def _fill(candidate: Candidate, candidate_id, answer_raw, answer_key, correct,
          disc_score, gen_scores, token_stats) -> Candidate:
    """Store a Candidate's fields, which were checked, and its cluster_key,
    and return it. Each is stored in field order, so the instance dict
    shares its keys with every other Candidate's (dict.update would give
    each its own)."""
    stored = candidate.__dict__
    stored["candidate_id"] = candidate_id
    stored["answer_raw"] = answer_raw
    stored["answer_key"] = answer_key
    stored["correct"] = correct
    stored["disc_score"] = disc_score
    stored["gen_scores"] = gen_scores
    stored["token_stats"] = token_stats
    stored["cluster_key"] = answer_key or NO_ANSWER_KEY
    return candidate


class AnswerColumns(NamedTuple):
    """A pool's answers as columns: each candidate's answer code (codes
    number the cluster keys in ascending order), the code of NO_ANSWER_KEY
    or -1, each code's label (None if unlabeled), and each code's key."""

    codes: np.ndarray
    none_code: int
    correct: Optional[np.ndarray]
    keys: tuple[str, ...]


def _answer_columns(keys: Sequence[str],
                    labels: Optional[Sequence[bool]] = None) -> AnswerColumns:
    """Answer columns of candidates with these cluster keys and labels, or
    None when they are unlabeled (a pool's, or a slate's)."""
    graded = dict(zip(keys, labels)) if labels is not None else None  # one per key
    ordered = tuple(sorted(set(keys) if graded is None else graded))
    code_of = {key: i for i, key in enumerate(ordered)}
    return AnswerColumns(
        np.fromiter(map(code_of.__getitem__, keys), np.int32, len(keys)),
        code_of.get(NO_ANSWER_KEY, -1),
        None if graded is None else np.array([graded[key] for key in ordered], bool),
        ordered,
    )


def _check_problem(problem_id, ids, keys, labels, discs, gens) -> None:
    """The one statement of a valid problem, on its candidates' columns:
    ids, answer keys, labels, and disc_score and gen_scores, each None
    where absent.

    problem_id is a non-empty string, else ValueError. Then EmptyPoolError
    for no candidates, or IngestError on the first broken invariant, in
    order: disc_score, then gen_scores, on all candidates or none; one
    label per answer among labeled candidates; unique candidate_ids; labels
    on all or none; one gen_scores length M."""
    if not isinstance(problem_id, str) or not problem_id:
        raise ValueError(f"problem_id must be a non-empty string, got {problem_id!r}")
    size = len(ids)
    if not size:
        raise EmptyPoolError(f"problem {problem_id!r}: empty pool")
    for name, values in (("disc_score", discs), ("gen_scores", gens)):
        present = size - values.count(None)
        if 0 < present < size:
            raise IngestError(
                f"problem {problem_id!r}: {name} present on {present} "
                f"of {size} candidates (must be all or none)"
            )
    if True in labels and False in labels:  # else no key can have two labels
        seen: dict[str, bool] = {}
        for key, label in zip(keys, labels):
            if label is not None and seen.setdefault(key, label) != label:
                raise IngestError(
                    f"problem {problem_id!r}: answer {key or NO_ANSWER_KEY!r} "
                    "graded both correct and incorrect"
                )
    if len(set(ids)) != size:
        raise IngestError(f"problem {problem_id!r}: duplicate candidate_ids")
    if 0 < labels.count(None) < size:
        raise IngestError(
            f"problem {problem_id!r}: mixed labeling "
            "(all candidates must carry ground-truth labels, or none)"
        )
    lengths = set() if gens[0] is None else set(map(len, gens))
    if len(lengths) > 1:
        raise IngestError(
            f"problem {problem_id!r}: inconsistent M "
            f"(gen_scores lengths {sorted(lengths)})"
        )


def _read_only(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if array is not None:
        array.flags.writeable = False
    return array


def _checked_columns(problem_id, ids: tuple, raws: tuple, keys: tuple, labels: tuple,
                     discs: tuple, gens: tuple, *tokens: tuple) -> dict:
    """The one check-and-build step of a Problem, for Problem() and ingest:
    _check_problem on the columns (tokens are the five TokenStats columns),
    then what a Problem stores of them, with disc and gen as read-only
    float64 arrays (None when absent)."""
    _check_problem(problem_id, ids, keys, labels, discs, gens)
    size = len(ids)
    disc = gen = None
    if discs[0] is not None:
        disc = _read_only(np.fromiter(discs, float, size))
    if gens[0] is not None:  # one length M, checked
        width = len(gens[0])
        gen = _read_only(np.fromiter(chain.from_iterable(gens), float, size * width))
        gen = gen.reshape(size, width)  # a read-only view
    return dict(problem_id=problem_id, candidate_ids=ids, answers=raws,
                answer_keys=keys, labels=labels, disc=disc, gen=gen, tokens=tokens)


# What Problem() reads of each Candidate, and of each TokenStats.
_CANDIDATE_FIELDS = attrgetter("candidate_id", "answer_raw", "answer_key", "correct",
                               "disc_score", "gen_scores", "token_stats")
_TOKEN_ROW = attrgetter(*_TOKEN_FIELDS)


class Problem:
    """A pool of candidate solutions for one problem, held as columns.

    Each candidate has one entry, in pool order, in candidate_ids, answers
    (raw text), answer_keys ("" for no answer) and labels; disc is a
    float64 (k,) array and gen a float64 (k, M) array, or None when the
    pool carries no such scores; tokens holds the five TokenStats fields as
    columns of exact ints. Every Problem stores these columns, built by
    _checked_columns, which checks them (_check_problem states what is
    valid, and nothing downstream checks it again); _plain_columns reads
    them back, as plain values, in the form _checked_columns takes, so a
    Problem rebuilt from them is equal. Built in code, a Problem keeps
    the caller's Candidates as candidates; built by ingest or
    generate_pool, or unpickled, it builds them from _plain_columns on each
    read, with no second check, and keeps none.
    token_stats holds each candidate's TokenStats, built on first use, and
    _kept what the rules derive from the columns (selection._scored). repr
    is that of a dataclass of (problem_id, candidates); == and hash compare
    problem_id and _plain_columns, which is == of the candidates. A Problem
    is immutable and pickles as its arrays, not as plain values.
    """

    def __init__(self, problem_id: str, candidates: Iterable[Candidate]) -> None:
        candidates = tuple(candidates)
        *columns, stats = tuple(zip(*map(_CANDIDATE_FIELDS, candidates))) or ((),) * 7
        if stats and stats.count(stats[0]) == len(stats):  # one value, as is usual
            tokens = ((value,) * len(stats) for value in _TOKEN_ROW(stats[0]))
        else:
            tokens = zip(*map(_TOKEN_ROW, stats))
        self.__dict__.update(_checked_columns(problem_id, *columns, *tokens),
                             candidates=candidates)

    @classmethod
    def _of_columns(cls, problem_id: str, candidate_ids: tuple, answers: tuple,
                    answer_keys: tuple, labels: tuple, disc: Optional[np.ndarray],
                    gen: Optional[np.ndarray], tokens: tuple) -> "Problem":
        """A Problem of columns that were already checked; no check runs."""
        return _unchecked(
            cls, problem_id=problem_id, candidate_ids=candidate_ids, answers=answers,
            answer_keys=answer_keys, labels=labels, disc=_read_only(disc),
            gen=_read_only(gen), tokens=tokens,
        )

    @property
    def candidates(self) -> tuple[Candidate, ...]:
        """The pool as Candidates: those a Problem built in code was given,
        else Candidates built from _plain_columns on each read, not kept."""
        kept = self.__dict__.get("candidates")
        if kept is not None:
            return kept
        return tuple(_fill(object.__new__(Candidate), *row)
                     for row in zip(*self._plain_columns()[:6], self.token_stats))

    @cached_property
    def token_stats(self) -> tuple[TokenStats, ...]:
        """Each candidate's TokenStats, built from the columns on first use;
        candidates with equal counts share one."""
        made: dict[tuple, TokenStats] = {}
        return tuple(
            made.get(row) or made.setdefault(
                row, _unchecked(TokenStats, **dict(zip(_TOKEN_FIELDS, row))))
            for row in zip(*self.tokens)
        )

    @cached_property
    def answer_columns(self) -> AnswerColumns:
        """Built on first use, then kept; repr and == ignore it."""
        return _answer_columns([key or NO_ANSWER_KEY for key in self.answer_keys],
                               self.labels if self.labeled else None)

    def _kept(self, slot, build, tag=None) -> np.ndarray:
        """build()'s array, kept read-only at slot for tag (another tag
        replaces it; a failed build keeps nothing); repr and == ignore it."""
        memo = self.__dict__.setdefault("_memo", {})
        if slot not in memo or memo[slot][0] != tag:
            memo[slot] = (tag, _read_only(build()))
        return memo[slot][1]

    def __len__(self) -> int:
        return len(self.candidate_ids)

    @property
    def labeled(self) -> bool:
        return self.labels[0] is not None

    def _plain_columns(self) -> tuple:
        """The columns as _checked_columns takes them, as plain values: ids,
        answers, answer keys, labels, disc (floats) and gen (tuples of
        floats), each of those two a column of None when absent, then the
        five token columns. The one reader of disc and gen as values."""
        absent = (None,) * len(self)
        disc = absent if self.disc is None else tuple(self.disc.tolist())
        gen = absent if self.gen is None else tuple(map(tuple, self.gen.tolist()))
        return (self.candidate_ids, self.answers, self.answer_keys, self.labels,
                disc, gen, *self.tokens)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.problem_id, *self._plain_columns())
                == (other.problem_id, *other._plain_columns()))

    def __hash__(self) -> int:
        return hash((self.problem_id, *self._plain_columns()))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(problem_id={self.problem_id!r}, "
                f"candidates={self.candidates!r})")

    def __reduce__(self):
        return Problem._of_columns, (
            self.problem_id, self.candidate_ids, self.answers, self.answer_keys,
            self.labels, self.disc, self.gen, self.tokens)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


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
    from fractions import Fraction  # loaded only by numeric mode

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
