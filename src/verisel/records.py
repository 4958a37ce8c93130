"""The record format and report emission.

One flat line-delimited format serves real data, synthetic data, and test
fixtures: one JSON object per candidate, grouped by problem_id (contiguous
or not). Ingestion canonicalizes answers and maps each record to a
Candidate, whose errors (and TokenStats') ingest prefixes with the line
number; Problem's errors name the problem. Emission is byte-stable so
identical inputs produce identical files.
"""

from __future__ import annotations

import io
import json
import logging
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO, Iterable, Sequence, Union

from .core import Candidate, IngestError, Problem, TokenStats, canonicalize_answer
from .costs import FlopsBreakdown
from .evaluate import BootstrapReport, BudgetPoint

log = logging.getLogger("verisel")

# TokenStats' fields, which records spell the same way.
_TOKEN_FIELDS = tuple(f.name for f in fields(TokenStats))
RECORD_FIELDS = (
    "problem_id", "candidate_id", "answer", "correct", "disc_score", "gen_scores",
) + _TOKEN_FIELDS

Source = Union[str, Path, IO[str]]


@dataclass(frozen=True)
class IngestStats:
    """What came in: sizes and how much of it is labeled."""

    problems: int
    candidates: int
    labeled_fraction: float

    def describe(self) -> str:
        return (
            f"ingested {self.problems} problems, {self.candidates} candidates, "
            f"{self.labeled_fraction:.1%} labeled"
        )


def _open_source(source: Source) -> tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        if str(source) == "-":
            return sys.stdin, False
        return open(source, "r", encoding="utf-8"), True
    return source, False


def _parse_line(lineno: int, line: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise IngestError(f"line {lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(record, dict):
        raise IngestError(f"line {lineno}: expected an object")
    for key in ("problem_id", "candidate_id"):
        if not isinstance(record.get(key), str) or not record[key]:
            raise IngestError(f"line {lineno}: missing field {key!r}")
    return record


def _candidate_of(lineno: int, record: dict, canon: str) -> Candidate:
    raw = record.get("answer")
    raw = "" if raw is None else raw  # null or absent: no answer
    try:
        return Candidate(
            candidate_id=record["candidate_id"],
            answer_raw=raw,
            # Candidate rejects an answer that is not text
            answer_key=canonicalize_answer(raw, canon) if isinstance(raw, str) else "",
            correct=record.get("correct"),
            disc_score=record.get("disc_score"),
            gen_scores=record.get("gen_scores"),
            token_stats=TokenStats(
                **{name: record[name] for name in _TOKEN_FIELDS if name in record}),
        )
    except (TypeError, ValueError) as exc:
        raise IngestError(f"line {lineno}: {exc}") from None


def ingest(source: Source, canon: str = "exact") -> list[Problem]:
    """Read candidate records into validated Problems.

    Candidates sharing a problem_id are pooled whether or not their lines
    are contiguous; first-seen order of problems and candidates is kept.
    Unknown fields are ignored with one warning per field name.
    """
    stream, owned = _open_source(source)
    pools: dict[str, list[Candidate]] = {}
    warned: set[str] = set()
    try:
        for lineno, line in enumerate(stream, 1):
            if not line.strip():
                continue
            record = _parse_line(lineno, line)
            for key in record.keys() - set(RECORD_FIELDS):
                if key not in warned:
                    warned.add(key)
                    log.warning("ignoring unknown record field %r", key)
            pools.setdefault(record["problem_id"], []).append(
                _candidate_of(lineno, record, canon)
            )
    finally:
        if owned:
            stream.close()

    if not pools:
        raise IngestError("no problems")
    return [
        Problem(problem_id=problem_id, candidates=tuple(candidates))
        for problem_id, candidates in pools.items()
    ]


def ingest_stats(problems: Sequence[Problem]) -> IngestStats:
    total = sum(len(p.candidates) for p in problems)
    labeled = sum(len(p.candidates) for p in problems if p.labeled)
    return IngestStats(
        problems=len(problems),
        candidates=total,
        labeled_fraction=labeled / total if total else 0.0,
    )


def record_of(problem_id: str, candidate: Candidate) -> dict:
    """One emission-ready record; defaults and absent fields are omitted."""
    st = candidate.token_stats
    record: dict = {
        "problem_id": problem_id,
        "candidate_id": candidate.candidate_id,
    }
    if candidate.answer_raw:
        record["answer"] = candidate.answer_raw
    if candidate.correct is not None:
        record["correct"] = candidate.correct
    if candidate.disc_score is not None:
        record["disc_score"] = candidate.disc_score
    if candidate.gen_scores is not None:
        record["gen_scores"] = list(candidate.gen_scores)
    for name in ("prompt_tokens", "output_tokens", "solution_tokens"):
        if getattr(st, name):
            record[name] = getattr(st, name)
    for name in ("reasoning_budget", "verification_out_tokens"):
        if getattr(st, name) is not None:
            record[name] = getattr(st, name)
    return record


def write_records(problems: Iterable[Problem], stream: IO[str]) -> None:
    """Emit problems in the ingestible line format, full float precision."""
    for problem in problems:
        for candidate in problem.candidates:
            record = record_of(problem.problem_id, candidate)
            stream.write(json.dumps(record) + "\n")


def records_text(problems: Iterable[Problem]) -> str:
    buf = io.StringIO()
    write_records(problems, buf)
    return buf.getvalue()


def _sig6(value: float) -> float:
    """Reports print floats at 6 significant digits."""
    return float(f"{value:.6g}")


def _plain(value):
    """A report as JSON-ready data: reports and breakdowns become dicts,
    wherever they sit, and every float goes through _sig6."""
    if isinstance(value, FlopsBreakdown):
        value = {k: float(v) for k, v in value.as_dict().items()}
    elif isinstance(value, (BootstrapReport, BudgetPoint)):
        value = {
            f.name: getattr(value, f.name) for f in fields(value)
            if getattr(value, f.name) is not None
        }
        if "per_problem" in value:
            value["per_problem"] = dict(value["per_problem"])
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float):
        return _sig6(value)
    return value


CURVE_HEADER = "method,N,M,budget,accuracy,ci_low,ci_high"


def _csv(header: str, rows: Sequence) -> str:
    """The header, then per row the attributes it names (in lower case),
    floats at 6 significant digits."""
    names = header.lower().split(",")
    lines = [header] + [
        ",".join(
            f"{v:.6g}" if isinstance(v, float) else str(v)
            for v in (getattr(row, name) for name in names)
        )
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def emit_report(
    report: Union[BootstrapReport, Sequence[BudgetPoint], FlopsBreakdown, dict],
    fmt: str = "json",
) -> str:
    """Render a report deterministically; floats at 6 significant digits.

    BootstrapReports render as a JSON object or a one-row CSV; curves as a
    JSON array or CSV with the documented header; breakdowns and plain
    dicts, which may hold reports and breakdowns, as JSON.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format: {fmt!r}")
    if fmt == "json":
        return json.dumps(_plain(report), indent=2) + "\n"
    if isinstance(report, BootstrapReport):
        return _csv("method,n,mean,ci_low,ci_high,draws,seed", [report])
    if isinstance(report, (FlopsBreakdown, dict)):
        raise ValueError("csv format applies to curves and reports only")
    return _csv(CURVE_HEADER, report)
