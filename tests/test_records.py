"""Record ingestion, emission round-trips, and report rendering."""

import contextlib
import io
import json
import logging
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from verisel import (
    BootstrapReport,
    BudgetPoint,
    Candidate,
    IngestError,
    Problem,
    SynthSpec,
    TokenStats,
    VeriselError,
    canonicalize_answer,
    emit_report,
    flops_generation,
    generate_pool,
    ingest,
    ingest_stats,
    select_answer,
)
from verisel.costs import ModelConfig
from verisel import records
from verisel.records import records_text, write_records
from verisel.selection import METHODS

from pools import random_problem


def ingest_text(text, canon="exact"):
    return ingest(io.StringIO(text), canon=canon)


def line(**kw):
    kw.setdefault("problem_id", "p1")
    kw.setdefault("candidate_id", "c1")
    return json.dumps(kw)


class TestIngest:
    def test_minimal_records(self):
        problems = ingest_text(
            line(candidate_id="c1", answer="42")
            + "\n"
            + line(candidate_id="c2")
            + "\n"
        )
        (problem,) = problems
        assert problem.problem_id == "p1"
        assert [c.candidate_id for c in problem.candidates] == ["c1", "c2"]
        assert problem.candidates[0].answer_key == "42"
        assert problem.candidates[1].cluster_key == "<none>"
        assert problem.candidates[0].correct is None

    def test_full_record(self):
        text = line(
            answer=" 4/6 ",
            correct=True,
            disc_score=1.25,
            gen_scores=[0.5, 0.75],
            prompt_tokens=3,
            output_tokens=9,
            solution_tokens=4,
            reasoning_budget=1024,
            verification_out_tokens=7,
        )
        (problem,) = ingest_text(text, canon="numeric")
        (c,) = problem.candidates
        assert c.answer_raw == " 4/6 "
        assert c.answer_key == "2/3"
        assert c.correct is True
        assert c.disc_score == 1.25
        assert c.gen_scores == (0.5, 0.75)
        assert c.token_stats == TokenStats(
            prompt_tokens=3, output_tokens=9, solution_tokens=4,
            reasoning_budget=1024, verification_out_tokens=7,
        )

    def test_interleaved_problems_keep_first_seen_order(self):
        text = "\n".join([
            line(problem_id="b", candidate_id="c1"),
            line(problem_id="a", candidate_id="c1"),
            "",
            line(problem_id="b", candidate_id="c2"),
        ]) + "\n"
        problems = ingest_text(text)
        assert [p.problem_id for p in problems] == ["b", "a"]
        assert len(problems[0].candidates) == 2

    def test_problem_whose_lines_come_back(self):
        """A, B, A: A's rows become columns when its first run ends, and are
        re-opened for its second; a bad record there names its own line."""
        lines = [
            line(problem_id="A", candidate_id="a1", answer="7", correct=True,
                 disc_score=0.5),
            line(problem_id="A", candidate_id="a2", correct=False, disc_score=1.5),
            line(problem_id="B", candidate_id="b1", answer=" 7", correct=False,
                 disc_score=2.0),
            line(problem_id="A", candidate_id="a3", answer=" 7", correct=True,
                 disc_score=-1.0),
            line(problem_id="A", candidate_id="a4", answer="8", correct=False,
                 disc_score=0.25),
        ]
        a, b = ingest_text("\n".join(lines))
        assert (a.problem_id, b.problem_id) == ("A", "B")
        assert a.candidate_ids == ("a1", "a2", "a3", "a4")
        assert a.answers == ("7", "", " 7", "8")
        assert a.answer_keys == ("7", "", "7", "8")
        assert a.labels == (True, False, True, False)
        assert a.disc.tolist() == [0.5, 1.5, -1.0, 0.25]
        assert (b.candidate_ids, b.answers, b.disc.tolist()) == (("b1",), (" 7",), [2.0])
        assert records_text([a, b]) == "".join(
            lines[i] + "\n" for i in (0, 1, 3, 4, 2))
        bad = lines[:4] + [line(problem_id="A", candidate_id="a4", correct=False,
                                disc_score="x")]
        with pytest.raises(IngestError, match="^line 5: "):
            ingest_text("\n".join(bad))
        # also when a line that is not a record ends the input
        with pytest.raises(IngestError, match="^line 5: "):
            ingest_text("\n".join(bad + ["[1]"]))

    def test_lines_that_come_back_are_joined_once(self, monkeypatch):
        """A problem is built at the end of its first run and, if its lines
        come back, once more at the end of the input: not at every run,
        which would cost the square of its runs on interleaved input."""
        built = []

        def counted(pid, *columns):
            built.append(pid)
            return checked_columns(pid, *columns)

        checked_columns = records._checked_columns
        monkeypatch.setattr(records, "_checked_columns", counted)
        a, b = ingest_text("\n".join(line(problem_id=pid, candidate_id=f"c{i}")
                                     for i in range(50) for pid in "AB"))
        assert a.candidate_ids == b.candidate_ids == tuple(f"c{i}" for i in range(50))
        assert built == ["A", "B", "A", "B"]

    def test_equal_answer_texts_share_one_string(self):
        """Problems keep one string per distinct answer text; they equal,
        print and write as Problems built in code do."""
        lines = [line(problem_id=pid, candidate_id=cid, answer="42")
                 for pid, cid in (("p", "c1"), ("q", "c1"), ("p", "c2"))]
        p, q = ingest_text("\n".join(lines))
        assert p.answers[0] is q.answers[0] is p.answers[1]
        # a joined string, not the literal, which Python would share
        built = [Problem(problem_id=pid, candidates=tuple(
            Candidate(candidate_id=cid, answer_raw="".join(["4", "2"]), answer_key="42")
            for cid in cids)) for pid, cids in (("p", ("c1", "c2")), ("q", ("c1",)))]
        assert built[0].answers[0] is not built[1].answers[0]
        assert [p, q] == built
        assert repr([p, q]) == repr(built)
        assert records_text([p, q]) == records_text(built)

    def test_numeric_canon_merges_clusters(self):
        text = "\n".join([
            line(candidate_id="c1", answer="0.5"),
            line(candidate_id="c2", answer="1/2"),
            line(candidate_id="c3", answer="3/4"),
        ])
        (problem,) = ingest_text(text, canon="numeric")
        keys = [c.answer_key for c in problem.candidates]
        assert keys == ["1/2", "1/2", "3/4"]
        (exact,) = ingest_text(text, canon="exact")
        assert [c.answer_key for c in exact.candidates] == ["0.5", "1/2", "3/4"]

    def test_repeated_key_last_wins(self):
        """As json.loads reads an object, the last of a repeated key wins."""
        (problem,) = ingest_text(
            '{"problem_id": "p0", "problem_id": "p1", "candidate_id": "c1", '
            '"answer": "7", "correct": true, "correct": false, '
            '"disc_score": 1, "disc_score": 2.5}'
        )
        (c,) = problem.candidates
        assert (problem.problem_id, c.correct, c.disc_score) == ("p1", False, 2.5)

    def test_unknown_field_warns_once(self, caplog):
        text = "\n".join([
            line(candidate_id="c1", latency_ms=5),
            line(candidate_id="c2", latency_ms=6),
        ])
        with caplog.at_level(logging.WARNING, logger="verisel"):
            (problem,) = ingest_text(text)
        assert len(problem.candidates) == 2
        hits = [r for r in caplog.records if "latency_ms" in r.getMessage()]
        assert len(hits) == 1

    def test_stdin_marker(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(line()))
        (problem,) = ingest("-")
        assert problem.problem_id == "p1"

    def test_path_source(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(line() + "\n")
        (problem,) = ingest(path)
        assert problem.problem_id == "p1"
        (problem,) = ingest(str(path))
        assert problem.problem_id == "p1"


class TestIngestErrors:
    def test_boolean_token_count(self):
        with pytest.raises(
            IngestError, match="line 2: invalid token count: output_tokens=True"
        ):
            ingest_text(line() + "\n" + line(candidate_id="c2", output_tokens=True))

    @pytest.mark.parametrize("head", ["", " "], ids=["scanner", "json.loads"])
    @pytest.mark.parametrize("opener", ["[", '{"a": '])
    def test_deep_nesting_names_line(self, head, opener):
        # once a raw RecursionError from json.decoder
        with pytest.raises(IngestError, match=re.escape(
                "line 2: invalid JSON (nesting too deep)")):
            ingest_text(line() + "\n" + head + opener * 200000)

    def test_invalid_json_names_line(self):
        with pytest.raises(IngestError, match="line 2: invalid JSON"):
            ingest_text(line() + "\n{oops\n")

    def test_non_object_line(self):
        with pytest.raises(IngestError, match="line 1: expected an object"):
            ingest_text("[1, 2]\n")

    def test_missing_ids(self):
        with pytest.raises(IngestError, match="line 1: missing field 'problem_id'"):
            ingest_text('{"candidate_id": "c1"}\n')
        with pytest.raises(IngestError, match="line 1: missing field 'candidate_id'"):
            ingest_text('{"problem_id": "p1"}\n')

    def test_bad_value_names_line(self):
        with pytest.raises(IngestError, match="line 1"):
            ingest_text(line(disc_score="high"))
        with pytest.raises(IngestError, match="line 2"):
            ingest_text(line() + "\n" + line(candidate_id="c2", prompt_tokens=-1))
        with pytest.raises(IngestError, match="line 1: correct"):
            ingest_text(
                line(correct="false", disc_score=True) + "\n"
                + line(candidate_id="c2", correct=True, disc_score=float("nan"))
            )
        for bad in (
            {"correct": "false"}, {"correct": 0}, {"disc_score": True},
            {"disc_score": float("nan")}, {"disc_score": float("-inf")},
            {"disc_score": 10**400}, {"disc_score": "0.5"},
            {"gen_scores": [0.5, None]}, {"gen_scores": [False]},
            {"gen_scores": [float("inf")]}, {"gen_scores": "0.5"},
        ):
            with pytest.raises(IngestError, match="line 2"):
                ingest_text(line() + "\n" + line(candidate_id="c2", **bad))

    def test_numbers_load_as_floats(self):
        (problem,) = ingest_text(line(disc_score=1, gen_scores=[1, 2]))
        (cand,) = problem.candidates
        assert type(cand.disc_score) is float and cand.disc_score == 1.0
        assert cand.gen_scores == (1.0, 2.0)
        assert {type(g) for g in cand.gen_scores} == {float}

    def test_empty_input(self):
        with pytest.raises(IngestError, match="no problems"):
            ingest_text("\n\n")

    def test_duplicate_candidate_ids(self):
        with pytest.raises(IngestError, match="duplicate candidate_id"):
            ingest_text(line() + "\n" + line())

    def test_partial_disc_scores(self):
        text = line(disc_score=1.0) + "\n" + line(candidate_id="c2")
        with pytest.raises(IngestError, match="disc_score present on 1 of 2"):
            ingest_text(text)

    def test_partial_gen_scores(self):
        text = line(gen_scores=[1.0]) + "\n" + line(candidate_id="c2")
        with pytest.raises(IngestError, match="gen_scores present on 1 of 2"):
            ingest_text(text)

    def test_ragged_gen_scores(self):
        text = line(gen_scores=[1.0]) + "\n" + \
            line(candidate_id="c2", gen_scores=[1.0, 2.0])
        with pytest.raises(IngestError, match="inconsistent M"):
            ingest_text(text)

    def test_conflicting_cluster_labels(self):
        text = line(answer="x", correct=True) + "\n" + \
            line(candidate_id="c2", answer="x", correct=False)
        with pytest.raises(IngestError, match="'p1'.*'x'.*graded both"):
            ingest_text(text)

    @pytest.mark.parametrize("lines, message", [
        (
            # partial disc_score, and c1 twice
            [line(disc_score=1.0), line()],
            "problem 'p1': disc_score present on 1 of 2 candidates "
            "(must be all or none)",
        ),
        (
            # partial gen_scores, and M of 1 and 2
            [line(gen_scores=[1.0]),
             line(candidate_id="c2", gen_scores=[1.0, 2.0]),
             line(candidate_id="c3")],
            "problem 'p1': gen_scores present on 2 of 3 candidates "
            "(must be all or none)",
        ),
        (
            # answer x graded both ways, and partial disc_score
            [line(answer="x", correct=True, disc_score=1.0),
             line(candidate_id="c2", answer="x", correct=False)],
            "problem 'p1': disc_score present on 1 of 2 candidates "
            "(must be all or none)",
        ),
    ], ids=["disc-and-duplicate", "gen-and-ragged", "conflict-and-disc"])
    def test_first_of_several_faults(self, lines, message):
        """Score presence is checked before labels, labels before ids."""
        with pytest.raises(IngestError) as excinfo:
            ingest_text("\n".join(lines))
        assert str(excinfo.value) == message

    def test_conflict_after_canonicalization(self):
        text = line(answer="0.5", correct=True) + "\n" + \
            line(candidate_id="c2", answer="1/2", correct=False)
        ingest_text(text, canon="exact")
        with pytest.raises(IngestError, match="graded both"):
            ingest_text(text, canon="numeric")

    def test_bad_record_in_a_run_that_came_back(self):
        """A, B, A, C: the first bad record in line order is named, though
        its problem's lines came back."""
        text = "\n".join([
            line(problem_id="A", candidate_id="a1"),
            line(problem_id="B", candidate_id="b1"),
            line(problem_id="A", candidate_id="a2"),
            line(problem_id="A", candidate_id="a3", disc_score="x"),
            line(problem_id="C", candidate_id="c1", correct="yes"),
        ])
        with pytest.raises(IngestError, match="^line 4: disc_score"):
            ingest_text(text)

    def test_bad_record_before_an_earlier_problems_fault(self):
        text = "\n".join([
            line(problem_id="A"), line(problem_id="A"),  # duplicate ids
            line(problem_id="B", prompt_tokens=-1),
        ])
        with pytest.raises(IngestError, match="^line 3: invalid token count"):
            ingest_text(text)

    def test_problem_faults_in_first_seen_order(self):
        """B's fault is whole before A's, but A was seen first."""
        text = "\n".join([
            line(problem_id="A", candidate_id="a1", disc_score=1.0),
            line(problem_id="B", candidate_id="b1", disc_score=1.0),
            line(problem_id="B", candidate_id="b2"),
            line(problem_id="A", candidate_id="a2"),
        ])
        with pytest.raises(IngestError) as excinfo:
            ingest_text(text)
        assert str(excinfo.value) == (
            "problem 'A': disc_score present on 1 of 2 candidates "
            "(must be all or none)")

    def test_candidate_id_repeated_across_runs(self):
        text = "\n".join([line(problem_id="A"), line(problem_id="B"),
                          line(problem_id="A")])
        with pytest.raises(IngestError, match="^problem 'A': duplicate candidate_ids$"):
            ingest_text(text)

    def test_bad_record_in_an_ended_run_before_invalid_json(self):
        text = "\n".join([line(problem_id="A", gen_scores=[]),
                          line(problem_id="B"), "{oops"])
        with pytest.raises(IngestError, match="^line 1: candidate 'c1': gen_scores"):
            ingest_text(text)


class TestIngestMemory:
    def test_peak_near_what_ingest_keeps(self):
        """Each problem's records become its columns when its run of lines
        ends, so ingest's traced peak stays near what its result holds."""
        text = records_text(generate_pool(SynthSpec(
            seed=1, n_problems=200, pool_size=64, p_correct=0.3, answer_space=8,
            gen_verifications=8)))
        source = io.StringIO(text)
        tracemalloc.start()
        try:
            problems = ingest(source)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(problems) == 200
        assert peak <= 1.3 * kept, (peak, kept)

    def test_candidates_are_built_on_each_read(self):
        (problem,) = ingest_text(line(candidate_id="c1", disc_score=1.0, gen_scores=[2])
                                 + "\n" + line(candidate_id="c2", disc_score=0.5,
                                                gen_scores=[1]))
        first = problem.candidates
        assert problem.candidates == first and problem.candidates is not first
        assert "candidates" not in vars(problem)
        given = (Candidate("c1"), Candidate("c2"))
        assert Problem("p", given).candidates is given


TOKEN_FIELDS = (
    "prompt_tokens", "output_tokens", "solution_tokens", "reasoning_budget",
    "verification_out_tokens",
)


def reference_ingest(text, canon):
    """ingest's result, or its error message: each line parsed on its own
    by json.loads, and every Candidate built record by record, with a fresh
    canonicalize_answer call and a fresh TokenStats."""
    pools = {}
    for lineno, text_line in enumerate(text.split("\n"), 1):
        if not text_line.strip():
            continue
        try:
            record = json.loads(text_line)
        except json.JSONDecodeError as exc:
            return f"line {lineno}: invalid JSON ({exc.msg})"
        if not isinstance(record, dict):
            return f"line {lineno}: expected an object"
        for key in ("problem_id", "candidate_id"):
            if not isinstance(record.get(key), str) or record[key] == "":
                return f"line {lineno}: missing field {key!r}"
        raw = record.get("answer")
        raw = "" if raw is None else raw
        try:
            candidate = Candidate(
                candidate_id=record["candidate_id"],
                answer_raw=raw,
                answer_key=canonicalize_answer(raw, canon) if isinstance(raw, str) else "",
                correct=record.get("correct"),
                disc_score=record.get("disc_score"),
                gen_scores=record.get("gen_scores"),
                token_stats=TokenStats(
                    **{name: record[name] for name in TOKEN_FIELDS if name in record}),
            )
        except (TypeError, ValueError) as exc:
            return f"line {lineno}: {exc}"
        pools.setdefault(record["problem_id"], []).append(candidate)
    if not pools:
        return "no problems"
    try:
        return [Problem(problem_id=pid, candidates=tuple(c)) for pid, c in pools.items()]
    except IngestError as exc:
        return str(exc)


# Answers repeat, differ only in whitespace, or spell one number several
# ways; a few are not text at all (a list is not even hashable).
ANSWERS = (
    "7", " 7", "7 ", "7.0", "14/2", "x  y", "x y", " x\ty ", "1/2", "0.5", "",
    "   ", "1e5000", "<none>", None, 7, ["7"],
)
# Valid values come up several times as often as each invalid one.
TOKEN_VALUES = (0, 1, 2**70) * 3 + (None, True, 1.0, -1)
DISC_SCORES = (0.5, -1.5, 0, 2, 1e308) * 2 + (
    None, True, "0.5", math.nan, math.inf, 2**1100)
GEN_SCORES = ([0.25, 0.75], [0.5, 0.5], [1, 0]) * 2 + (
    [0.5], [], None, [True], ["x"], 0.5, [math.nan], "ab")
LABELS = (True, False) * 3 + (None, 1, 0, "true")
PROBLEM_IDS = ("p", "q") * 12 + ("", 7, None)
# "next" stands for the record's own id, c0, c1, ...; "c0" repeats one.
CANDIDATE_IDS = ("next",) * 36 + ("", 3, None, True, "c0")
# Lines that are not a record, together drawn a twelfth as often as a
# record: broken or extra JSON, JSON that is not an object, an object
# without ids, and blank lines, which are skipped.
BAD_LINES = (
    '{"problem_id": "p"', '{"problem_id": "p", "candidate_id": "x",}',
    '{"a": 1} {"b": 2}', "[1, 2]", "null", '"text"', "NaN", "{}",
    '{"candidate_id": "z"}', "", "   ", "\t{",
)
RECORD = st.tuples(
    st.sampled_from(("record",) * (12 * len(BAD_LINES)) + BAD_LINES),
    st.fixed_dictionaries(
        {"problem_id": st.sampled_from(PROBLEM_IDS),
         "candidate_id": st.sampled_from(CANDIDATE_IDS)},
        optional={
            "answer": st.sampled_from(ANSWERS),
            "correct": st.sampled_from(LABELS),
            "disc_score": st.sampled_from(DISC_SCORES),
            "gen_scores": st.sampled_from(GEN_SCORES),
            "latency_ms": st.just(5),
            **{name: st.sampled_from(TOKEN_VALUES) for name in TOKEN_FIELDS[:3]},
        },
    ),
)
RECORDS = st.lists(RECORD, min_size=1, max_size=8)


def record_line(i, drawn):
    """Line i of the input: the drawn record, or the drawn bad line."""
    line, drawn = drawn
    if line != "record":
        return line
    if drawn["candidate_id"] == "next":
        drawn = dict(drawn, candidate_id=f"c{i}")
    return json.dumps(drawn)


class TestAnswerKeyCache:
    """ingest canonicalizes each distinct answer text once per call, and
    still checks every record and builds its own TokenStats."""

    def test_each_distinct_answer_is_canonicalized_once(self, monkeypatch):
        calls = []

        def counting(raw, mode="exact"):
            calls.append(raw)
            return canonicalize_answer(raw, mode)

        monkeypatch.setattr(records, "canonicalize_answer", counting)
        answers = ["3", " 3 ", "3.0", "3", "6/2", " 3 ", "3.0", "x", "3"]
        text = "\n".join(
            line(candidate_id=f"c{i}", answer=a) for i, a in enumerate(answers))
        (problem,) = ingest_text(text, canon="numeric")
        assert sorted(calls) == sorted(set(answers))
        assert [c.answer_key for c in problem.candidates] == ["3"] * 7 + ["x", "3"]
        assert [c.answer_raw for c in problem.candidates] == answers
        ingest_text(text, canon="exact")  # a new call, a new cache
        assert len(calls) == 2 * len(set(answers))

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_token_count_equal_to_an_earlier_one_fails_on_its_line(self, value):
        with pytest.raises(IngestError, match=re.escape(
            f"line 2: invalid token count: prompt_tokens={value!r}"
        )):
            ingest_text(line(candidate_id="c1", prompt_tokens=1) + "\n"
                        + line(candidate_id="c2", prompt_tokens=value))

    def test_absent_and_null_token_counts_differ(self):
        (problem,) = ingest_text(line(candidate_id="c1", answer="7"))
        assert problem.candidates[0].token_stats.prompt_tokens == 0
        with pytest.raises(IngestError, match=re.escape(
            "line 2: invalid token count: prompt_tokens=None"
        )):
            ingest_text(line(candidate_id="c1", answer="7") + "\n"
                        + line(candidate_id="c2", answer="7", prompt_tokens=None))

    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(RECORDS, st.sampled_from(("exact", "numeric")))
    def test_same_as_record_by_record(self, drawn, canon):
        """Answers, labels, scores, ids, token counts, an unknown field and
        bad lines: ingest gives the reference's Problems, or an IngestError
        with its message, which names the line or the problem."""
        text = "\n".join(record_line(i, d) for i, d in enumerate(drawn))
        try:
            got = ingest_text(text, canon=canon)
        except IngestError as exc:
            got = str(exc)
            assert re.match(r"line \d+: |problem '|no problems$", got), got
        assert repr(got) == repr(reference_ingest(text, canon))


# What may sit around a line's JSON: json's own whitespace, whitespace
# that json does not skip (\x0b, \xa0), and, in front only, a BOM.
WRAPS = ("", " ", "\t", "\r", "\n", " \t\r", "\x0b", "\xa0")


def reference_parse(lineno, text_line):
    """records._parse_line by json.loads: the record, or the message."""
    try:
        record = json.loads(text_line)
    except json.JSONDecodeError as exc:
        return f"line {lineno}: invalid JSON ({exc.msg})"
    if not isinstance(record, dict):
        return f"line {lineno}: expected an object"
    for key in ("problem_id", "candidate_id"):
        if not isinstance(record.get(key), str) or record[key] == "":
            return f"line {lineno}: missing field {key!r}"
    return record


class TestParseLine:
    """Each line reads as json.loads reads it, though a line that starts
    with JSON is scanned by json's C scanner directly."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(st.lists(RECORD, min_size=1, max_size=2),
           st.sampled_from((0,) * 6 + (1, 2, 7, 30)),
           st.sampled_from(WRAPS * 2 + ("\ufeff",)), st.sampled_from(WRAPS))
    def test_same_as_json_loads(self, drawn, cut, head, tail):
        """Records (NaN scores among them) and bad lines, one or two values
        on a line, whole or cut short, with whitespace or a BOM around
        them: the same record, or the same message."""
        body = " ".join(record_line(i, d) for i, d in enumerate(drawn))
        text_line = head + body[:len(body) - cut] + tail
        try:
            got = records._parse_line(3, text_line)
        except IngestError as exc:
            got = str(exc)
        assert repr(got) == repr(reference_parse(3, text_line))

    def test_json_loads_reads_only_what_the_scanner_leaves(self, monkeypatch):
        loaded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda s: loaded.append(s) or loads(s))
        plain = line()
        for text_line in (plain, plain + " \t\r\n", plain + "\n"):
            assert records._parse_line(1, text_line) == loads(plain)
        assert loaded == []
        for text_line in (" " + plain, "\ufeff" + plain, plain + "\xa0", plain + " 1"):
            with contextlib.suppress(IngestError):
                records._parse_line(1, text_line)
        assert len(loaded) == 4


class TestRoundTrip:
    def test_synthetic_pools_survive(self):
        problems = generate_pool(
            SynthSpec(seed=5, n_problems=4, pool_size=8, p_correct=0.4,
                      gen_verifications=2, verification_out_tokens=7)
        )
        again = ingest_text(records_text(problems))
        assert again == problems

    def test_random_pools_survive(self):
        rng = np.random.default_rng(61)
        problems = [
            random_problem(rng, min_size=2, max_size=12, labeled=bool(i % 2),
                           pid=f"q{i}")
            for i in range(10)
        ]
        assert ingest_text(records_text(problems)) == problems

    def test_full_float_precision(self):
        score = 0.1234567890123456789
        problem = Problem(
            problem_id="p",
            candidates=(
                Candidate(candidate_id="c", answer_raw="x", answer_key="x",
                          disc_score=score),
            ),
        )
        (again,) = ingest_text(records_text([problem]))
        assert again.candidates[0].disc_score == float(score)

    def test_write_records_stream(self):
        problems = generate_pool(
            SynthSpec(seed=6, n_problems=2, pool_size=3, p_correct=0.5)
        )
        buf = io.StringIO()
        write_records(problems, buf)
        assert buf.getvalue() == records_text(problems)
        assert len(buf.getvalue().splitlines()) == 6

    def test_each_line_is_json_dumps(self):
        """write_records writes json.dumps(record) and a newline per record:
        text that json escapes, int-valued scores, counts past 64 bits and
        absent optional fields."""
        odd = 'é "q" \\ \x00\x1f\u2028 ☃ 𝄞'
        big = TokenStats(prompt_tokens=2**70, output_tokens=2**70,
                         solution_tokens=3, reasoning_budget=0,
                         verification_out_tokens=2**70)
        problems = [
            Problem(problem_id="p" + odd, candidates=(
                Candidate(candidate_id="c" + odd, answer_raw=odd,
                          answer_key=canonicalize_answer(odd), correct=True,
                          disc_score=2, gen_scores=(1, -0.0, 1e308),
                          token_stats=big),
                Candidate(candidate_id="d", correct=False, disc_score=-1.5,
                          gen_scores=(0.5, 0.25, 3)),
            )),
            Problem(problem_id="q", candidates=(Candidate(candidate_id="e"),)),
        ]
        text = records_text(problems)
        assert text == "".join(
            json.dumps(records.record_of(p.problem_id, c)) + "\n"
            for p in problems for c in p.candidates)
        assert '"disc_score": 2.0' in text and "1180591620717411303424" in text
        assert ingest_text(text) == problems

    def test_defaults_are_omitted(self):
        problem = Problem(
            problem_id="p",
            candidates=(
                Candidate(candidate_id="c", answer_raw="", answer_key=""),
            ),
        )
        record = json.loads(records_text([problem]))
        assert record == {"problem_id": "p", "candidate_id": "c"}


class TestIngestStats:
    def test_counts_and_fraction(self):
        rng = np.random.default_rng(62)
        problems = [
            random_problem(rng, min_size=4, max_size=4, labeled=(i < 3),
                           pid=f"q{i}")
            for i in range(4)
        ]
        stats = ingest_stats(problems)
        assert stats.problems == 4
        assert stats.candidates == 16
        assert stats.labeled_fraction == 0.75
        assert "4 problems" in stats.describe()
        assert "75.0% labeled" in stats.describe()


def report_fixture():
    return BootstrapReport(
        method="pv", n=8, mean=0.6543217, ci_low=0.6012345, ci_high=0.7098765,
        draws=500, seed=3, ci_level=0.95, replacement=False,
        transform="sigmoid", alpha=0.5, m=None,
        per_problem=(("q0", 0.625), ("q1", 0.6836434)),
    )


def curve_fixture():
    return [
        BudgetPoint(method="sc", n=1, m=0, budget=100.0, accuracy=0.5,
                    ci_low=0.45, ci_high=0.55),
        BudgetPoint(method="gpv", n=2, m=2, budget=450.123456,
                    accuracy=0.7123456, ci_low=0.68, ci_high=0.74),
    ]


class TestEmitReport:
    def test_bootstrap_json(self):
        doc = json.loads(emit_report(report_fixture()))
        assert list(doc) == [
            "method", "n", "mean", "ci_low", "ci_high", "draws", "seed",
            "ci_level", "replacement", "transform", "alpha", "per_problem",
        ]
        assert doc["mean"] == 0.654322
        assert doc["alpha"] == 0.5
        assert doc["per_problem"] == {"q0": 0.625, "q1": 0.683643}

    def test_bootstrap_csv(self):
        text = emit_report(report_fixture(), fmt="csv")
        header, row, trailer = text.split("\n")
        assert header == "method,n,mean,ci_low,ci_high,draws,seed"
        assert row == "pv,8,0.654322,0.601235,0.709877,500,3"
        assert trailer == ""

    def test_curve_csv(self):
        text = emit_report(curve_fixture(), fmt="csv")
        lines = text.splitlines()
        assert lines[0] == "method,N,M,budget,accuracy,ci_low,ci_high"
        assert lines[1] == "sc,1,0,100,0.5,0.45,0.55"
        assert lines[2] == "gpv,2,2,450.123,0.712346,0.68,0.74"

    def test_curve_json(self):
        doc = json.loads(emit_report(curve_fixture()))
        assert doc[1]["budget"] == 450.123
        assert doc[0]["method"] == "sc"

    def test_breakdown_renders_as_json(self):
        fb = flops_generation(ModelConfig(d=2, m=3, L=2, V=7), 4, 5)
        doc = json.loads(emit_report(fb))
        assert doc["total"] == float(fb.total)
        assert set(doc) == {
            "projections", "attention_prefill", "attention_decode",
            "lm_head", "total",
        }

    def test_nested_dict_rounding(self):
        doc = json.loads(emit_report({
            "outer": {"value": 0.123456789},
            "items": [0.987654321, {"deep": 1.111111111}],
            "count": 3,
        }))
        assert doc["outer"]["value"] == 0.123457
        assert doc["items"][0] == 0.987654
        assert doc["items"][1]["deep"] == 1.11111
        assert doc["count"] == 3

    def test_deterministic_output(self):
        assert emit_report(report_fixture()) == emit_report(report_fixture())
        assert emit_report(curve_fixture(), fmt="csv") == \
            emit_report(curve_fixture(), fmt="csv")

    def test_int_fields_print_as_floats(self):
        report = BootstrapReport(
            method="pv", n=4, mean=1, ci_low=1, ci_high=1, draws=2, seed=0,
            ci_level=0.95, replacement=False, transform="raw", alpha=1,
            m=None, per_problem=(("q0", 1),),
        )
        assert emit_report(report) == (
            '{\n  "method": "pv",\n  "n": 4,\n  "mean": 1.0,\n'
            '  "ci_low": 1.0,\n  "ci_high": 1.0,\n  "draws": 2,\n'
            '  "seed": 0,\n  "ci_level": 0.95,\n  "replacement": false,\n'
            '  "transform": "raw",\n  "alpha": 1.0,\n'
            '  "per_problem": {\n    "q0": 1.0\n  }\n}\n'
        )
        assert emit_report(report, fmt="csv") == (
            "method,n,mean,ci_low,ci_high,draws,seed\npv,4,1,1,1,2,0\n"
        )
        points = [BudgetPoint(method="sc", n=2, m=0, budget=1234567,
                              accuracy=1, ci_low=0, ci_high=1)]
        assert emit_report(points, fmt="csv") == (
            "method,N,M,budget,accuracy,ci_low,ci_high\n"
            "sc,2,0,1.23457e+06,1,0,1\n"
        )
        assert emit_report(points) == (
            '[\n  {\n    "method": "sc",\n    "n": 2,\n    "m": 0,\n'
            '    "budget": 1234570.0,\n    "accuracy": 1.0,\n'
            '    "ci_low": 0.0,\n    "ci_high": 1.0\n  }\n]\n'
        )

    def test_reports_nested_in_a_dict(self):
        fb = flops_generation(ModelConfig(d=2, m=3, L=2, V=7), 4, 5)
        doc = {"flops": fb, "report": report_fixture(),
               "curve": tuple(curve_fixture())}
        text = emit_report(doc)
        assert json.loads(text) == {
            "flops": json.loads(emit_report(fb)),
            "report": json.loads(emit_report(report_fixture())),
            "curve": json.loads(emit_report(curve_fixture())),
        }
        assert f'"total": {float(fb.total)}' in text

    def test_rejected_formats(self):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(report_fixture(), fmt="yaml")
        with pytest.raises(ValueError, match="csv format applies"):
            emit_report({"a": 1.0}, fmt="csv")


class TestBlankAnswers:
    """An answer of only whitespace canonicalizes to nothing: the candidate
    joins the no-answer cluster, and may not be labeled correct."""

    @pytest.mark.parametrize("canon", ["exact", "numeric"])
    def test_whitespace_answer_has_no_answer(self, canon):
        text = "\n".join([
            line(candidate_id="c", answer="   ", correct=False),
            line(candidate_id="d", answer=" \t\n", correct=False),
            line(candidate_id="e", answer="7", correct=True),
        ])
        (problem,) = ingest_text(text, canon=canon)
        assert [c.cluster_key for c in problem.candidates] == ["<none>", "<none>", "7"]
        assert problem.candidates[0].answer_raw == "   "
        assert ingest_text(records_text([problem]), canon=canon) == [problem]

    def test_unlabeled_whitespace_answer(self):
        (problem,) = ingest_text('{"problem_id": "p", "candidate_id": "c", "answer": "   "}')
        assert problem.candidates[0].cluster_key == "<none>"

    @pytest.mark.parametrize("answer", ["   ", "", None])
    def test_labeled_correct_without_answer_fails(self, answer):
        record = {"answer": answer} if answer is not None else {}
        with pytest.raises(
            IngestError, match="^line 2: candidate 'c': no answer, but labeled correct$"
        ):
            ingest_text(line(candidate_id="e", answer="7", correct=False) + "\n"
                        + line(candidate_id="c", correct=True, **record))

    @pytest.mark.parametrize("answer", [42, 0, False, ["7"], {}, 1.5])
    def test_answer_that_is_not_text_fails(self, answer):
        with pytest.raises(IngestError, match=re.escape(
            f"line 2: candidate 'c': answer must be a string, got {answer!r}"
        )):
            ingest_text(line(candidate_id="e", answer="7") + "\n"
                        + line(candidate_id="c", answer=answer))

    @pytest.mark.parametrize("canon", ["exact", "numeric"])
    @pytest.mark.parametrize("answer", ["<none>", " <none> "])
    def test_reserved_no_answer_key_fails(self, answer, canon):
        with pytest.raises(IngestError, match=re.escape(
            "line 2: candidate 'c': answer '<none>' is reserved"
        )):
            ingest_text(line(candidate_id="e", answer="7") + "\n"
                        + line(candidate_id="c", answer=answer), canon=canon)

    def test_null_answer_is_no_answer(self):
        (problem,) = ingest_text(line(answer=None, correct=False))
        assert problem.candidates[0].answer_raw == ""
        assert problem.candidates[0].cluster_key == "<none>"

    def test_candidate_keeps_its_rule_for_text(self):
        with pytest.raises(ValueError, match="answer_key empty"):
            Candidate(candidate_id="c", answer_raw=" 42 ", answer_key="")
        assert Candidate(candidate_id="c", answer_raw=" \t").cluster_key == "<none>"


def outcome(call):
    """call()'s value, or its error's type and message."""
    try:
        return call()
    except (VeriselError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def route_view(problem):
    """What the two construction routes must agree on, besides ==, repr
    and hash: answer columns, every rule's pick, and the emitted bytes."""
    codes, none_code, correct, keys = problem.answer_columns
    return (
        codes.tolist(), none_code, None if correct is None else correct.tolist(),
        keys,
        [outcome(lambda: select_answer(problem, method)) for method in METHODS],
        records_text([problem]),
    )


class TestConstructionRoutes:
    """A Problem built in code from Candidates and the same pool read by
    ingest (whose Problem holds columns and builds no Candidate) are one
    value."""

    def assert_same(self, built, read):
        assert [p == q for p, q in zip(built, read)] == [True] * len(built)
        assert repr(read) == repr(built)
        assert [hash(p) for p in read] == [hash(p) for p in built]
        assert [route_view(p) for p in read] == [route_view(p) for p in built]

    @pytest.mark.parametrize("canon", ["exact", "numeric"])
    def test_synthetic_pools(self, canon):
        built = generate_pool(
            SynthSpec(seed=8, n_problems=5, pool_size=9, p_correct=0.4,
                      answer_space=3, gen_verifications=3,
                      verification_out_tokens=5))
        read = ingest_text(records_text(built), canon=canon)
        assert not any("candidates" in vars(p) for p in read)
        self.assert_same(built, read)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(RECORDS, st.sampled_from(("exact", "numeric")))
    def test_drawn_records(self, drawn, canon):
        """reference_ingest builds each Problem from Candidates; where the
        records are valid, ingest's columns are the same Problem."""
        text = "\n".join(record_line(i, d) for i, d in enumerate(drawn))
        built = reference_ingest(text, canon)
        if isinstance(built, str):  # an error; test_same_as_record_by_record
            return
        self.assert_same(built, ingest_text(text, canon=canon))

    def test_built_in_code_holds_columns(self):
        """Problem(pid, candidates) stores its columns at once, as ingest's
        Problem does, and keeps the caller's Candidates as they are."""
        for problem in generate_pool(SynthSpec(seed=3, n_problems=2, pool_size=6,
                                               p_correct=0.5, gen_verifications=2)):
            cands = problem.candidates
            built = Problem(problem.problem_id, cands)
            stored = vars(built)
            assert {"disc", "gen", "answers", "answer_keys", "tokens"} <= set(stored)
            assert built.candidates is cands
            assert stored["answers"] == tuple(c.answer_raw for c in cands)
            assert stored["tokens"] == tuple(zip(*[
                (st.prompt_tokens, st.output_tokens, st.solution_tokens,
                 st.reasoning_budget, st.verification_out_tokens)
                for st in (c.token_stats for c in cands)]))
            for array, want in ((stored["disc"], [c.disc_score for c in cands]),
                                (stored["gen"], [c.gen_scores for c in cands])):
                assert array.dtype == np.float64 and not array.flags.writeable
                assert array.tolist() == [list(w) if isinstance(w, tuple) else w
                                          for w in want]
                with pytest.raises(ValueError):
                    array[0] = 0.0
        counts = Problem("mixed", [
            Candidate("a", token_stats=TokenStats(1, 2, 2)),
            Candidate("b", token_stats=TokenStats(3, 4, 1, 9, 5)),
        ])
        assert vars(counts)["tokens"] == ((1, 3), (2, 4), (2, 1), (None, 9), (None, 5))
        assert (vars(counts)["disc"], vars(counts)["gen"]) == (None, None)

    @pytest.mark.parametrize("fields, message", [
        ((dict(gen_scores=(1.0,)), dict(gen_scores=(1.0, 2.0))),
         "problem 'p': inconsistent M (gen_scores lengths [1, 2])"),
        ((dict(disc_score=1.0), dict()),
         "problem 'p': disc_score present on 1 of 2 candidates (must be all or none)"),
    ], ids=["ragged-gen", "partial-disc"])
    def test_problem_checked_before_arrays(self, fields, message):
        """A pool the rules refuse raises _check_problem's message, not an
        error from building its arrays."""
        cands = [Candidate(cid, **f) for cid, f in zip("ab", fields)]
        with pytest.raises(IngestError, match=re.escape(message)):
            Problem("p", cands)

    @pytest.mark.parametrize("fields, message", [
        ({"answer_raw": 5, "correct": "yes"}, "answer must be a string, got 5"),
        ({"correct": "yes", "disc_score": math.nan},
         "correct must be true or false, got 'yes'"),
        ({"disc_score": True, "gen_scores": ()},
         "disc_score must be a finite number, got True"),
        ({"gen_scores": (), "answer_key": "<none>"},
         "candidate 'c': gen_scores must be non-empty"),
        ({"answer_raw": " 7 ", "correct": True},
         "candidate 'c': answer_key empty but answer_raw is not blank"),
    ], ids=["answer-then-label", "label-then-disc", "disc-then-gen",
            "gen-then-reserved", "blank-then-label"])
    def test_first_broken_rule_is_named(self, fields, message):
        """A Candidate that breaks two rules is refused with the first, in
        the order its docstring gives."""
        with pytest.raises(ValueError) as excinfo:
            Candidate(candidate_id="c", **fields)
        assert str(excinfo.value).endswith(message)

    def test_first_broken_token_rule_is_named(self):
        with pytest.raises(ValueError, match=re.escape(
                "invalid token count: prompt_tokens=-1")):
            TokenStats(prompt_tokens=-1, output_tokens=True, solution_tokens=2)
        with pytest.raises(ValueError, match=re.escape(
                "invalid token count: solution_tokens 3 > output_tokens 2")):
            TokenStats(output_tokens=2, solution_tokens=3, reasoning_budget=-1)


def _pool_text(pids, disc=True, gen=True, labeled=True):
    """Records of problems named by pids, one line each, in order (a pid
    that comes back starts another run of its lines)."""
    lines = []
    for i, pid in enumerate(pids):
        fields = dict(problem_id=pid, candidate_id=f"c{i}", answer=str(i % 3),
                      prompt_tokens=i, output_tokens=2 * i, solution_tokens=i)
        if labeled:
            fields["correct"] = i % 3 == 0
        if disc:
            fields["disc_score"] = 0.25 * i - 1
        if gen:
            fields["gen_scores"] = [0.5, i / 7]
        if i % 2:
            fields.update(reasoning_budget=5, verification_out_tokens=3)
        lines.append(json.dumps(fields))
    return "\n".join(lines)


def _routes():
    """A Problem from each construction route, by name."""
    ingested = {
        f"ingest {name}": ingest_text(_pool_text(pids, **flags))
        for name, pids, flags in (
            ("scored", "AAABB", {}),
            ("lines come back", "ABABA", {}),
            ("no disc", "AAA", dict(disc=False)),
            ("no gen", "AAA", dict(gen=False)),
            ("no labels", "AAA", dict(labeled=False)),
            ("no scores", "AAA", dict(disc=False, gen=False, labeled=False)),
        )
    }
    synthetic = {
        f"generate_pool M={m}": generate_pool(SynthSpec(
            seed=5, n_problems=2, pool_size=6, p_correct=0.5, answer_space=2,
            gen_verifications=m))
        for m in (0, 3)
    }
    pools = {**ingested, **synthetic}
    pools["built in code"] = [Problem(p.problem_id, p.candidates)
                              for p in pools["ingest lines come back"]]
    pools["unpickled"] = pickle.loads(pickle.dumps(pools["ingest scored"]))
    return pools


class TestPlainColumns:
    """Problem._plain_columns reads a Problem's columns back as
    _checked_columns takes them, so every Problem round-trips through the
    one check-and-build step, whatever route built it."""

    @pytest.mark.parametrize("route", list(_routes()))
    def test_round_trip(self, route):
        for problem in _routes()[route]:
            columns = problem._plain_columns()
            rebuilt = Problem._of_columns(
                **records._checked_columns(problem.problem_id, *columns))
            assert rebuilt == problem and hash(rebuilt) == hash(problem)
            assert rebuilt.candidates == problem.candidates
            assert rebuilt._plain_columns() == columns

    @pytest.mark.parametrize("route", list(_routes()))
    def test_plain_values(self, route):
        """disc is floats and gen tuples of floats, or each a column of
        None; the rest are the stored columns."""
        for problem in _routes()[route]:
            ids, raws, keys, labels, discs, gens, *tokens = problem._plain_columns()
            assert (ids, raws, keys, labels) == (
                problem.candidate_ids, problem.answers, problem.answer_keys,
                problem.labels)
            assert tuple(tokens) == problem.tokens
            for values, array in ((discs, problem.disc), (gens, problem.gen)):
                assert type(values) is tuple and len(values) == len(problem)
                if array is None:
                    assert values == (None,) * len(problem)
            if problem.disc is not None:
                assert {type(d) for d in discs} == {float}
            if problem.gen is not None:
                assert {type(g) for g in gens} == {tuple}
                assert {type(s) for g in gens for s in g} == {float}
            assert [c.gen_scores for c in problem.candidates] == list(gens)
            assert [c.disc_score for c in problem.candidates] == list(discs)
