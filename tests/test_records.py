"""Record ingestion, emission round-trips, and report rendering."""

import io
import json
import logging
import re

import numpy as np
import pytest

from verisel import (
    BootstrapReport,
    BudgetPoint,
    Candidate,
    IngestError,
    Problem,
    SynthSpec,
    TokenStats,
    emit_report,
    flops_generation,
    generate_pool,
    ingest,
    ingest_stats,
)
from verisel.costs import ModelConfig
from verisel.records import records_text, write_records

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
