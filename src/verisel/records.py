"""The record format and report emission.

One flat line-delimited format serves real data, synthetic data, and test
fixtures: one JSON object per candidate, grouped by problem_id (contiguous
or not). Ingestion canonicalizes answers and keeps each record as a row of
its problem until its run of lines ends; then the run's rows are checked
as columns by core's rules (a record's fault is prefixed with its line
number) and become the Problem's columns, with no Candidate built. A
problem's fault names the problem and is raised only once every record
has passed. Emission is byte-stable so identical inputs produce identical
files.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from itertools import chain
from typing import IO, TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .core import (
    _TOKEN_FIELDS,
    Candidate,
    IngestError,
    Problem,
    TokenStats,
    _candidate_fault,
    _checked_columns,
    _token_fault,
    canonicalize_answer,
)

if TYPE_CHECKING:  # imported where read, so `import verisel` loads neither module
    from .costs import FlopsBreakdown
    from .evaluate import BootstrapReport, BudgetPoint

# A row holds a record's line, then these fields (TokenStats' fields,
# which records spell the same way), or their defaults when absent.
_ROW_FIELDS = ("candidate_id", "answer", "correct", "disc_score", "gen_scores",
               *_TOKEN_FIELDS)
_ROW_DEFAULTS = (None,) * 5 + tuple(f.default for f in fields(TokenStats))
RECORD_FIELDS = ("problem_id",) + _ROW_FIELDS
_KNOWN_FIELDS = frozenset(RECORD_FIELDS)

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


# The C scanner json.loads calls; json.loads itself scans from index 0 when
# a line starts with neither whitespace nor a BOM.
_scan = json.JSONDecoder().scan_once


def _parse_line(lineno: int, line: str) -> dict:
    """The line as json.loads reads it, with its message on an error."""
    try:
        try:
            record, end = _scan(line, 0)
            if line[end:].strip(" \t\n\r"):  # json's own whitespace
                raise StopIteration
        except StopIteration:  # leading whitespace, a BOM, extra data
            record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise IngestError(f"line {lineno}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise IngestError(f"line {lineno}: invalid JSON (nesting too deep)") from None
    if not isinstance(record, dict):
        raise IngestError(f"line {lineno}: expected an object")
    for key in ("problem_id", "candidate_id"):
        if not isinstance(record.get(key), str) or not record[key]:
            raise IngestError(f"line {lineno}: missing field {key!r}")
    return record


class _Answers(dict):
    """Answer text -> (one copy of the text, shared by every record that
    gives it, and its canonical key), canonicalized on first lookup."""

    def __init__(self, canon: str):
        super().__init__()
        self.canon = canon

    def __missing__(self, raw: str) -> tuple[str, str]:
        entry = self[raw] = (raw, canonicalize_answer(raw, self.canon))
        return entry


def _columns(rows: Sequence[tuple], answers: _Answers) -> tuple:
    """A problem's rows as record columns: lines, candidate ids, answers
    ("" for null or absent), answer keys ("" where the answer is not text,
    which the rules refuse), then the rest of _ROW_FIELDS."""
    lines, ids, raws, *rest = zip(*rows)
    raws = ("" if raw is None else raw for raw in raws)
    pairs = (answers[raw] if isinstance(raw, str) else (raw, "") for raw in raws)
    return (lines, ids, *zip(*pairs), *rest)


def _record_fault(columns: Sequence[tuple]) -> Optional[str]:
    """Record columns' first fault, as a record is checked: its token
    counts, then its candidate."""
    return _token_fault(*columns[7:]) or _candidate_fault(*columns[1:7])


def _end_run(pools: dict[str, Union[Problem, list]], pid: Optional[str],
             rows: Sequence[tuple], answers: _Answers) -> None:
    """pid's run of lines ends. Raise the IngestError of the run's first bad
    record: the run is checked as columns in bulk, and only a failing one
    row by row. Else, for pid's first run, check and build its columns into
    pools[pid], a Problem. A problem that breaks a rule, or whose lines
    come back, is kept as the list of its runs' columns (a built first
    run's read back by Problem._plain_columns), which ingest joins and
    builds, raising any fault, once every record is checked."""
    if not rows:
        return
    columns = _columns(rows, answers)
    if _record_fault(columns):
        for row in zip(*columns):
            fault = _record_fault([(value,) for value in row])
            if fault:
                raise IngestError(f"line {row[0]}: {fault}")
    columns = columns[1:]  # without the lines, which only a record's fault names
    runs = pools.get(pid)
    if runs is None:  # pid's first run
        try:
            pools[pid] = Problem._of_columns(**_checked_columns(pid, *columns))
            return
        except IngestError:  # raised once every record is checked
            runs = pools[pid] = []
    elif isinstance(runs, Problem):  # pid's lines came back: joined at the end,
        runs = pools[pid] = [runs._plain_columns()]  # not rebuilt at each run
    runs.append(columns)


def ingest(source: Source, canon: str = "exact") -> list[Problem]:
    """Read candidate records into validated Problems.

    Candidates sharing a problem_id are pooled whether or not their lines
    are contiguous; first-seen order of problems and candidates is kept.
    Unknown fields are ignored with one warning per field name. Each
    distinct answer text is canonicalized once per call, and kept as one
    string. Each record is kept as one row of its problem until the
    problem's run of lines ends, at the first line that names another
    problem; then the run's records are checked in bulk, and the first bad
    one in line order names its line (a line that is not a record is
    reported only after the open run passes). A problem's first run is
    then checked and built into its columns at once, so on contiguous
    input the rows of one run exist at a time. A problem whose lines come
    back keeps its runs' columns, and a problem that breaks a rule keeps
    its own; each is joined and built once every record has passed, and
    the first such problem in first-seen order raises its fault.
    """
    stream, owned = _open_source(source)
    pools: dict[str, Union[Problem, list]] = {}  # Problems, or runs' columns
    answers = _Answers(canon)  # for this call only
    warned: set[str] = set()
    last, rows = None, []
    try:
        for lineno, line in enumerate(stream, 1):
            if not line.strip():
                continue
            try:
                record = _parse_line(lineno, line)
            except IngestError:  # the records before it are checked first
                _end_run(pools, last, rows, answers)
                raise
            if not _KNOWN_FIELDS.issuperset(record):
                for key in record.keys() - _KNOWN_FIELDS:
                    if key not in warned:
                        import logging  # only here, so `import verisel` skips it
                        warned.add(key)
                        logging.getLogger("verisel").warning(
                            "ignoring unknown record field %r", key)
            pid = record["problem_id"]
            if pid != last:  # last's run of lines ends
                _end_run(pools, last, rows, answers)
                last, rows = pid, []
            rows.append((lineno, *map(record.get, _ROW_FIELDS, _ROW_DEFAULTS)))
    finally:
        if owned:
            stream.close()

    _end_run(pools, last, rows, answers)
    if not pools:
        raise IngestError("no problems")
    for pid, runs in pools.items():  # first-seen order: the first fault raises
        if not isinstance(runs, Problem):
            columns = (tuple(chain.from_iterable(run)) for run in zip(*runs))
            pools[pid] = Problem._of_columns(**_checked_columns(pid, *columns))
    return list(pools.values())


def ingest_stats(problems: Sequence[Problem]) -> IngestStats:
    total = sum(map(len, problems))
    labeled = sum(len(p) for p in problems if p.labeled)
    return IngestStats(
        problems=len(problems),
        candidates=total,
        labeled_fraction=labeled / total if total else 0.0,
    )


def _record(problem_id: str, candidate_id: str, answer: str, correct, disc, gen,
            prompt: int, output: int, solution: int, budget, verify) -> dict:
    """One emission-ready record; defaults and absent fields are omitted."""
    record: dict = {"problem_id": problem_id, "candidate_id": candidate_id}
    if answer:
        record["answer"] = answer
    if correct is not None:
        record["correct"] = correct
    if disc is not None:
        record["disc_score"] = disc
    if gen is not None:
        record["gen_scores"] = gen
    if prompt:
        record["prompt_tokens"] = prompt
    if output:
        record["output_tokens"] = output
    if solution:
        record["solution_tokens"] = solution
    if budget is not None:
        record["reasoning_budget"] = budget
    if verify is not None:
        record["verification_out_tokens"] = verify
    return record


def record_of(problem_id: str, candidate: Candidate) -> dict:
    """One emission-ready record of a Candidate, as write_records writes it."""
    st = candidate.token_stats
    return _record(problem_id, candidate.candidate_id, candidate.answer_raw,
                   candidate.correct, candidate.disc_score, candidate.gen_scores,
                   *(getattr(st, name) for name in _TOKEN_FIELDS))


# The C encoder json.dumps builds on every call, built once with its
# defaults and its TypeError; no circular check (markers=None), since
# _record's records are acyclic.
_encode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ": ", ", ", False, False, True,
)


def write_records(problems: Iterable[Problem], stream: IO[str]) -> None:
    """Emit problems in the ingestible line format, full float precision:
    each record's line is json.dumps(record), one write per problem. Reads
    each problem's columns as Problem._plain_columns gives them."""
    for problem in problems:
        chunks: list[str] = []
        pid = problem.problem_id
        ids, raws, _, *rest = problem._plain_columns()  # no answer keys
        for row in zip(ids, raws, *rest):
            chunks += _encode(_record(pid, *row), 0)
            chunks.append("\n")
        stream.write("".join(chunks))


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
    from .costs import FlopsBreakdown
    from .evaluate import BootstrapReport, BudgetPoint

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
    from .costs import FlopsBreakdown
    from .evaluate import BootstrapReport

    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format: {fmt!r}")
    if fmt == "json":
        return json.dumps(_plain(report), indent=2) + "\n"
    if isinstance(report, BootstrapReport):
        return _csv("method,n,mean,ci_low,ci_high,draws,seed", [report])
    if isinstance(report, (FlopsBreakdown, dict)):
        raise ValueError("csv format applies to curves and reports only")
    return _csv(CURVE_HEADER, report)
