"""Domain types, canonicalization, and clustering."""

import dataclasses
import enum
import io
import json
import math
import pickle
import re
import sys
import time

import numpy as np
import pytest

from verisel import (
    AnswerCluster,
    Candidate,
    EmptyPoolError,
    IngestError,
    Problem,
    TokenStats,
    canonicalize_answer,
    cluster_by_answer,
    ingest,
    select_answer,
)
from verisel.selection import ClusterDiagnostic
from pools import random_problem


def make_problem(answers, scores=None, pid="q"):
    scores = scores or [None] * len(answers)
    return Problem(
        problem_id=pid,
        candidates=tuple(
            Candidate(
                candidate_id=f"c{i}",
                answer_raw=a,
                answer_key=a,
                disc_score=s,
            )
            for i, (a, s) in enumerate(zip(answers, scores))
        ),
    )


class TestCanonicalize:
    def test_exact_trims_and_collapses(self):
        assert canonicalize_answer("  x  +\t1 ") == "x + 1"
        assert canonicalize_answer("42") == "42"
        assert canonicalize_answer("") == ""

    def test_numeric_integer(self):
        assert canonicalize_answer(" 42 ", "numeric") == "42"
        assert canonicalize_answer("42.0", "numeric") == "42"
        assert canonicalize_answer("-7", "numeric") == "-7"

    def test_numeric_reduces_fractions(self):
        assert canonicalize_answer("3/6", "numeric") == "1/2"
        assert canonicalize_answer("0.5", "numeric") == "1/2"
        assert canonicalize_answer("-10/4", "numeric") == "-5/2"

    def test_numeric_falls_back_on_symbolic(self):
        assert canonicalize_answer("x+1", "numeric") == "x+1"
        assert canonicalize_answer("1/0", "numeric") == "1/0"

    @pytest.mark.parametrize("raw", [
        "1e5000", "1e1000000", "1e10000000", " -2.5E+99999999 ", "7e-10000000",
        "1.5e1_000_000", "1e" + "9" * 5000,
    ])
    def test_numeric_huge_exponent_falls_back_fast(self, raw):
        """A normal form past the interpreter's digit limit gives the
        exact-mode key, without first expanding 10**exponent."""
        start = time.perf_counter()
        assert canonicalize_answer(raw, "numeric") == raw.strip()
        assert time.perf_counter() - start < 1.0

    def test_numeric_exponent_up_to_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert canonicalize_answer(f"1e{limit - 1}", "numeric") == "1" + "0" * (limit - 1)
        assert canonicalize_answer(f"1e{limit}", "numeric") == f"1e{limit}"
        assert canonicalize_answer(f"1e-{limit - 1}", "numeric") == "1/1" + "0" * (limit - 1)
        assert canonicalize_answer(f"1e-{limit}", "numeric") == f"1e-{limit}"
        # a mantissa's digits can scale an exponent past the limit back under it
        small = "0." + "0" * 99 + "1"
        assert canonicalize_answer(f"{small}e{limit + 99}", "numeric") == "1" + "0" * (limit - 1)
        assert canonicalize_answer("0e10000000", "numeric") == "0"
        assert canonicalize_answer("-0.0e-99999999", "numeric") == "0"

    def test_numeric_follows_the_interpreter_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(6000)
            assert canonicalize_answer("1e5000", "numeric") == "1" + "0" * 5000
            assert canonicalize_answer("1e6000", "numeric") == "1e6000"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            canonicalize_answer("1", "latex")

    def test_idempotent(self):
        """canonicalize(canonicalize(x)) = canonicalize(x), both modes."""
        rng = np.random.default_rng(11)
        pieces = ["42", "3/6", " x ", "0.50", "a  b", "-2/8", "1e3", "?!"]
        for _ in range(300):
            raw = " ".join(
                pieces[int(i)] for i in rng.integers(len(pieces), size=3)
            )
            for mode in ("exact", "numeric"):
                once = canonicalize_answer(raw, mode)
                assert canonicalize_answer(once, mode) == once


class TestTokenStats:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="invalid token count"):
            TokenStats(prompt_tokens=-1)

    def test_solution_cannot_exceed_output(self):
        with pytest.raises(ValueError, match="solution_tokens"):
            TokenStats(output_tokens=10, solution_tokens=11)
        TokenStats(output_tokens=10, solution_tokens=10)

    def test_optional_fields(self):
        st = TokenStats(reasoning_budget=100, verification_out_tokens=0)
        assert st.reasoning_budget == 100
        with pytest.raises(ValueError):
            TokenStats(reasoning_budget=-5)

    @pytest.mark.parametrize("value", [
        True, False, 1.0, np.int64(1), enum.IntEnum("Size", "ONE")(1), None, "1",
    ], ids=["true", "false", "float", "numpy-int", "int-enum", "none", "text"])
    def test_counts_are_ints_by_exact_type(self, value):
        with pytest.raises(ValueError, match=re.escape(
            f"invalid token count: prompt_tokens={value!r}"
        )):
            TokenStats(prompt_tokens=value)


class TestCandidate:
    def test_answer_key_required_with_raw(self):
        with pytest.raises(ValueError, match="answer_key"):
            Candidate(candidate_id="c", answer_raw="42", answer_key="")

    def test_unanswered_falls_into_sentinel_cluster(self):
        c = Candidate(candidate_id="c")
        assert c.cluster_key == "<none>"

    def test_cluster_key_is_set_once_and_not_a_field(self):
        c = Candidate(candidate_id="c", answer_raw=" 7", answer_key="7")
        assert vars(c)["cluster_key"] == "7"  # an attribute, not a property
        assert "cluster_key" not in {f.name for f in dataclasses.fields(c)}
        assert "cluster_key" not in repr(c)
        assert dataclasses.replace(c, answer_key="8").cluster_key == "8"
        assert pickle.loads(pickle.dumps(c)).cluster_key == "7"
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.cluster_key = "8"

    def test_gen_scores_must_be_nonempty(self):
        with pytest.raises(ValueError, match="non-empty"):
            Candidate(candidate_id="c", gen_scores=())
        c = Candidate(candidate_id="c", gen_scores=[0.1, 0.2])
        assert c.gen_scores == (0.1, 0.2)

    @pytest.mark.parametrize("fields, message", [
        ({"correct": 1}, "correct must be true or false, got 1"),
        ({"correct": np.bool_(True)}, "correct must be true or false"),
        ({"disc_score": float("nan")}, "disc_score must be a finite number"),
        ({"disc_score": float("-inf")}, "disc_score must be a finite number"),
        ({"disc_score": True}, "disc_score must be a finite number, got True"),
        ({"disc_score": 10**400}, "disc_score must be a finite number"),
        ({"disc_score": "0.5"}, "disc_score must be a finite number"),
        ({"gen_scores": (0.5, float("inf"))}, "gen_scores must be finite numbers"),
        ({"gen_scores": (False,)}, "gen_scores must be finite numbers"),
        ({"gen_scores": 0.5}, "gen_scores must be finite numbers, got 0.5"),
        ({"answer_raw": 42, "answer_key": "42"}, "answer must be a string, got 42"),
        ({"answer_raw": None}, "answer must be a string, got None"),
        ({"answer_raw": "<none>", "answer_key": "<none>"}, "'<none>' is reserved"),
        ({"answer_key": "<none>"}, "'<none>' is reserved"),
        ({"answer_raw": "7", "answer_key": 7},
         "candidate 'c': answer_key must be a string, got 7"),
        ({"answer_key": None}, "candidate 'c': answer_key must be a string, got None"),
        ({"correct": True}, "candidate 'c': no answer, but labeled correct"),
    ], ids=[
        "label-int", "label-numpy-bool", "disc-nan", "disc-minus-inf", "disc-bool",
        "disc-huge-int", "disc-text", "gen-inf", "gen-bool", "gen-not-a-list",
        "answer-int", "answer-none", "answer-reserved", "key-reserved", "key-int",
        "key-none",
        "correct-without-answer",
    ])
    def test_rules_hold_for_candidates_built_in_code(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Candidate(candidate_id="c", **fields)

    @pytest.mark.parametrize("cid", [5, None, "", True, b"c"])
    def test_candidate_id_is_a_non_empty_string(self, cid):
        # an int id next to "x" once failed bon's sort with a raw TypeError
        with pytest.raises(ValueError, match=re.escape(
                f"candidate_id must be a non-empty string, got {cid!r}")):
            Candidate(candidate_id=cid, answer_raw="a", answer_key="a")

    def test_labeled_nan_candidate_is_refused(self):
        # wsc used to pick such a candidate's NaN cluster
        with pytest.raises(ValueError, match="correct must be true or false"):
            Candidate(candidate_id="c", answer_raw="a", answer_key="a",
                      correct=1, disc_score=float("nan"))
        with pytest.raises(ValueError, match="disc_score must be a finite number"):
            Candidate(candidate_id="c", answer_raw="a", answer_key="a",
                      correct=True, disc_score=float("nan"))

    def test_scores_are_stored_as_floats(self):
        c = Candidate(candidate_id="c", disc_score=1, gen_scores=[1, 2.5])
        assert c.disc_score == 1.0 and type(c.disc_score) is float
        assert c.gen_scores == (1.0, 2.5)
        assert [type(g) for g in c.gen_scores] == [float, float]
        assert Candidate(candidate_id="c", gen_scores=iter([0.5])).gen_scores == (0.5,)


class TestProblem:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(IngestError, match="duplicate"):
            Problem(
                problem_id="q",
                candidates=(
                    Candidate(candidate_id="c0", answer_raw="a", answer_key="a"),
                    Candidate(candidate_id="c0", answer_raw="b", answer_key="b"),
                ),
            )

    def test_mixed_labeling_rejected(self):
        with pytest.raises(IngestError, match="mixed labeling"):
            Problem(
                problem_id="q",
                candidates=(
                    Candidate(
                        candidate_id="c0", answer_raw="a", answer_key="a",
                        correct=True,
                    ),
                    Candidate(candidate_id="c1", answer_raw="a", answer_key="a"),
                ),
            )

    def test_ragged_gen_scores_rejected(self):
        with pytest.raises(IngestError, match="inconsistent M"):
            Problem(
                problem_id="q",
                candidates=(
                    Candidate(
                        candidate_id="c0", answer_raw="a", answer_key="a",
                        gen_scores=(0.1,),
                    ),
                    Candidate(
                        candidate_id="c1", answer_raw="a", answer_key="a",
                        gen_scores=(0.1, 0.2),
                    ),
                ),
            )

    @pytest.mark.parametrize("pid", [7, None, "", ("q",)])
    def test_problem_id_is_a_non_empty_string(self, pid):
        # an int id once failed bootstrap_accuracy's id hash with a raw
        # AttributeError
        with pytest.raises(ValueError, match=re.escape(
                f"problem_id must be a non-empty string, got {pid!r}")):
            Problem(problem_id=pid, candidates=make_problem(["a"]).candidates)

    @pytest.mark.parametrize("candidates", [(), [], iter(())])
    def test_empty_pool_refused(self, candidates):
        with pytest.raises(EmptyPoolError, match="^problem 'q': empty pool$"):
            Problem(problem_id="q", candidates=candidates)

    def test_len_and_labeled(self):
        p = make_problem(["a", "b"])
        assert len(p) == 2 and not p.labeled

    def labeled(self, answers, correct):
        return Problem(problem_id="q", candidates=tuple(
            Candidate(candidate_id=f"c{i}", answer_raw=a, answer_key=a,
                      correct=a == correct)
            for i, a in enumerate(answers)
        ))

    def test_answer_columns(self):
        codes, none_code, correct, keys = self.labeled(
            ["b", "", "a", "b"], "a").answer_columns
        # codes number the keys in ascending order: "<none>", "a", "b"
        assert codes.dtype == np.int32 and codes.tolist() == [2, 0, 1, 2]
        assert none_code == 0
        assert correct.tolist() == [False, True, False]
        assert keys == ("<none>", "a", "b")
        codes, none_code, correct, keys = make_problem(["b", "a"]).answer_columns
        assert codes.tolist() == [1, 0] and none_code == -1 and correct is None
        assert keys == ("a", "b")

    def test_answer_columns_built_once_and_unseen(self):
        problem, twin = (self.labeled(["b", "a"], "a") for _ in range(2))
        columns = problem.answer_columns
        assert problem.answer_columns is columns
        assert problem == twin and repr(problem) == repr(twin)
        assert hash(problem) == hash(twin)
        copy = pickle.loads(pickle.dumps(problem))
        assert copy == problem
        assert copy.answer_columns.codes.tolist() == columns.codes.tolist()

    @pytest.mark.parametrize("records, message", [
        (
            [{"answer": "a", "disc_score": 0.5}, {"answer": "a"}],
            "problem 'q': disc_score present on 1 of 2 candidates "
            "(must be all or none)",
        ),
        (
            [{"answer": "a"}, {"answer": "b", "gen_scores": [0.1]},
             {"answer": "b"}],
            "problem 'q': gen_scores present on 1 of 3 candidates "
            "(must be all or none)",
        ),
        (
            # the unlabeled middle candidate is skipped, not a conflict
            [{"answer": "a", "correct": True}, {"answer": "a"},
             {"answer": "a", "correct": False}],
            "problem 'q': answer 'a' graded both correct and incorrect",
        ),
    ], ids=["partial-disc", "partial-gen", "graded-both"])
    def test_rejected_as_ingest_rejects(self, records, message):
        """A pool built in code fails with exactly ingest's message."""
        records = [
            {"problem_id": "q", "candidate_id": f"c{i}", **r}
            for i, r in enumerate(records)
        ]
        with pytest.raises(IngestError) as from_file:
            ingest(io.StringIO("\n".join(map(json.dumps, records))))
        with pytest.raises(IngestError) as from_code:
            Problem(
                problem_id="q",
                candidates=tuple(
                    Candidate(
                        candidate_id=r["candidate_id"],
                        answer_raw=r["answer"],
                        answer_key=r["answer"],
                        correct=r.get("correct"),
                        disc_score=r.get("disc_score"),
                        gen_scores=r.get("gen_scores"),
                    )
                    for r in records
                ),
            )
        assert str(from_code.value) == str(from_file.value) == message


class TestClusterByAnswer:
    def test_counts(self):
        clusters = cluster_by_answer(make_problem(["A", "A", "B"]))
        assert [(c.answer_key, c.n_a) for c in clusters] == [("A", 2), ("B", 1)]

    def test_key_breaks_support_ties(self):
        clusters = cluster_by_answer(make_problem(["B", "A", "B", "A"]))
        assert [(c.answer_key, c.n_a) for c in clusters] == [("A", 2), ("B", 2)]

    def test_singleton_aggregates(self):
        (cluster,) = cluster_by_answer(make_problem(["A"], [0.7]))
        assert cluster.sum_score == 0.7
        assert cluster.member_ids == ("c0",)

    def test_empty_pool(self):
        with pytest.raises(EmptyPoolError, match="empty pool"):
            cluster_by_answer(Problem(problem_id="q", candidates=()))

    def test_cluster_is_its_members(self):
        problem = make_problem(["A", "B", "A", "A"], [1e16, 0.5, 1.0, -1e16])
        a, b = cluster_by_answer(problem)
        assert a.members == tuple(problem.candidates[i] for i in (0, 2, 3))
        assert a.member_ids == ("c0", "c2", "c3") and a.n_a == 3
        # summed in pool order: (1e16 + 1.0) - 1e16, where fsum gives 1.0
        assert a.sum_score == 0.0 and math.fsum([1e16, 1.0, -1e16]) == 1.0
        assert (b.member_ids, b.n_a, b.sum_score) == (("c1",), 1, 0.5)
        with pytest.raises(ValueError, match="cluster 'A': no members"):
            AnswerCluster("A", ())

    def test_mean_score_is_derived(self):
        result = select_answer(make_problem(["A", "B", "A"], [0.5, 2.0, 0.25]), "sc")
        assert [(d.answer_key, d.n_a, d.sum_score, d.mean_score)
                for d in result.cluster_diagnostics] == [
            ("A", 2, 0.75, 0.375), ("B", 1, 2.0, 2.0)]
        assert ClusterDiagnostic("A", 2).mean_score is None
        assert "mean_score" not in {f.name for f in dataclasses.fields(ClusterDiagnostic)}

    def test_aggregates_none_without_full_scores(self):
        clusters = cluster_by_answer(make_problem(["A", "A"]))
        assert clusters[0].sum_score is None
        # a pool scored on some candidates only never reaches clustering
        with pytest.raises(IngestError, match="must be all or none"):
            make_problem(["A", "A"], [0.5, None])

    def test_partition_property(self):
        """Every candidate lands in exactly one cluster; counts add up."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            problem = random_problem(rng, max_size=32)
            clusters = cluster_by_answer(problem)
            seen = [cid for cl in clusters for cid in cl.member_ids]
            assert sorted(seen) == sorted(
                c.candidate_id for c in problem.candidates
            )
            assert sum(cl.n_a for cl in clusters) == len(problem)

    def test_order_is_total_and_input_independent(self):
        """Shuffling candidates never changes the (key, n_a) sequence."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            problem = random_problem(rng, min_size=2, max_size=24)
            base = [
                (c.answer_key, c.n_a) for c in cluster_by_answer(problem)
            ]
            perm = rng.permutation(len(problem))
            shuffled = Problem(
                problem_id=problem.problem_id,
                candidates=tuple(problem.candidates[int(i)] for i in perm),
            )
            assert [
                (c.answer_key, c.n_a) for c in cluster_by_answer(shuffled)
            ] == base
