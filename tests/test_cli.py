"""End-to-end command-line flows, run in-process except one subprocess
byte-identity check."""

import io
import json
import subprocess
import sys

import pytest

from verisel import MODEL_PRESETS, pipeline_flops, TokenStats
from verisel.cli import main


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate(capsys, path, **flags):
    argv = ["simulate", "-o", str(path), "--n-problems", "6",
            "--pool-size", "8"]
    for name, value in flags.items():
        argv += [f"--{name.replace('_', '-')}", str(value)]
    code, out, _ = main(argv), *capsys.readouterr()
    assert code == 0 and out == ""
    return str(path)


def jsonl(*records):
    return "".join(json.dumps(r) + "\n" for r in records)


class TestEvaluate:
    def test_simulate_then_evaluate(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path / "pools.jsonl")
        code, out, err = run(capsys, [
            "evaluate", "-i", data, "--method", "wsc", "-n", "4",
            "--draws", "50",
        ])
        assert code == 0
        assert "ingested 6 problems, 48 candidates, 100.0% labeled" in err
        doc = json.loads(out)
        assert doc["method"] == "wsc" and doc["n"] == 4
        assert doc["draws"] == 50 and len(doc["per_problem"]) == 6
        assert 0.0 <= doc["ci_low"] <= doc["mean"] <= doc["ci_high"] <= 1.0

    def test_csv_format(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path / "pools.jsonl")
        code, out, _ = run(capsys, [
            "evaluate", "-i", data, "--method", "sc", "-n", "2",
            "--draws", "20", "--format", "csv",
        ])
        assert code == 0
        assert out.splitlines()[0] == "method,n,mean,ci_low,ci_high,draws,seed"
        assert out.splitlines()[1].startswith("sc,2,")

    def test_output_file(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path / "pools.jsonl")
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, [
            "evaluate", "-i", data, "--method", "sc", "-n", "2",
            "--draws", "20", "-o", str(target),
        ])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["method"] == "sc"

    def test_gpv_respects_m_flag(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path / "pools.jsonl", gen_verifications=3)
        code, out, _ = run(capsys, [
            "evaluate", "-i", data, "--method", "gpv", "-n", "4",
            "-M", "2", "--draws", "20",
        ])
        assert code == 0 and json.loads(out)["m"] == 2

    def test_oversized_slate_fails(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path / "pools.jsonl")
        code, _, err = run(capsys, [
            "evaluate", "-i", data, "--method", "sc", "-n", "9",
            "--draws", "20",
        ])
        assert code == 2 and "error: slate too large" in err

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_fails(self, capsys, tmp_path, alpha):
        # --alpha nan once printed mean 0 and exited 0
        data = simulate(capsys, tmp_path / "pools.jsonl")
        code, out, err = run(capsys, [
            "evaluate", "-i", data, "--method", "pv", "-n", "4",
            "--draws", "20", "--alpha", alpha,
        ])
        assert code == 2 and out == ""
        assert f"error: invalid alpha: {alpha}" in err

    @pytest.mark.parametrize("argv, message", [
        (["evaluate", "--method", "pv", "-n", "2", "--alpha", "nan"],
         "invalid alpha: nan"),
        (["curve", "--methods", "sc", "--draws", "0"], "invalid draw count: 0"),
        (["curve", "--solver-preset", "qwen2.5-32b", "--solver-config", "x.txt"],
         "give a preset or a config file, not both"),
    ])
    def test_flags_fail_before_input_is_read(self, capsys, tmp_path, argv, message):
        data = simulate(capsys, tmp_path / "pools.jsonl")
        code, out, err = run(capsys, [*argv, "-i", data])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_m_beyond_data_fails(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path / "pools.jsonl", gen_verifications=2)
        code, _, err = run(capsys, [
            "evaluate", "-i", data, "--method", "gpv", "-n", "4",
            "-M", "5", "--draws", "20",
        ])
        assert code == 2 and "error: inconsistent M" in err

    def test_mixed_m_needs_m_flag(self, capsys, monkeypatch):
        records = [
            {"problem_id": pid, "candidate_id": cid, "answer": answer,
             "correct": answer == "a", "gen_scores": [0.5 + 0.1 * j] * m}
            for pid, m in (("p1", 1), ("p2", 2))
            for j, (cid, answer) in enumerate((("c1", "a"), ("c2", "b"), ("c3", "a")))
        ]
        argv = ["evaluate", "--method", "gpv", "-n", "2", "--draws", "5"]
        code, out, err = run(capsys, argv, stdin=jsonl(*records),
                             monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "error: inconsistent M across problems (gen_scores lengths [1, 2])" \
            in err
        code, out, _ = run(capsys, argv + ["-M", "1"], stdin=jsonl(*records),
                           monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["m"] == 1

    def test_bad_records_fail_with_line(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            ["evaluate", "--method", "sc", "-n", "1", "--draws", "5"],
            stdin='{"problem_id": "p"}\n',
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "error: line 1: missing field 'candidate_id'" in err

    def test_deep_nesting_fails_with_line(self, capsys, monkeypatch):
        # once a raw RecursionError traceback from json.decoder, exit 1
        code, _, err = run(
            capsys,
            ["evaluate", "--method", "sc", "-n", "1", "--draws", "5"],
            stdin=jsonl({"problem_id": "p", "candidate_id": "c"}) + "[" * 200000,
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "error: line 2: invalid JSON (nesting too deep)" in err


class TestCurve:
    def test_flops_curve_csv(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path / "pools.jsonl")
        code, out, _ = run(capsys, [
            "curve", "-i", data, "--methods", "sc,wsc", "--n-grid", "1,2,4",
            "--solver-preset", "qwen2.5-32b",
            "--verifier-preset", "qwen2.5-1.5b",
            "--draws", "20",
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "method,N,M,budget,accuracy,ci_low,ci_high"
        assert len(lines) == 1 + 6
        assert lines[1].startswith("sc,1,0,")
        assert lines[4].startswith("wsc,1,0,")

    def test_latency_curve_uses_bundled_table(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path / "pools.jsonl")
        code, out, _ = run(capsys, [
            "curve", "-i", data, "--methods", "sc", "--n-grid", "1,2,4",
            "--budget", "latency", "--draws", "20", "--format", "json",
        ])
        assert code == 0
        budgets = [pt["budget"] for pt in json.loads(out)]
        assert budgets == [273.1, 276.6, 288.4]

    def test_unmeasured_latency_fails(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path / "pools.jsonl")
        code, _, err = run(capsys, [
            "curve", "-i", data, "--methods", "sc", "--n-grid", "3",
            "--budget", "latency", "--draws", "5",
        ])
        assert code == 2 and "error: no measurement" in err

    def test_nan_latency_fails(self, capsys, tmp_path):
        # a NaN entry once printed a point with budget nan
        data = simulate(capsys, tmp_path / "pools.jsonl")
        table = tmp_path / "latency.json"
        table.write_text('{"generation": {"1": NaN, "2": 2.0}}')
        code, out, err = run(capsys, [
            "curve", "-i", data, "--methods", "sc", "--n-grid", "1,2",
            "--budget", "latency", "--latency-table", str(table),
        ])
        assert code == 2 and out == ""
        assert "error: invalid latency entry: ('generation', 1, 0, nan)" in err

    @pytest.mark.parametrize("doc, message", [
        ("[1]", "top level must be a JSON object, got [1]"),
        ('{"generation": {"x": 1}}', "generation key must be an integer, got 'x'"),
    ])
    def test_malformed_latency_table_fails(self, capsys, tmp_path, doc, message):
        # these once ended in a raw AttributeError and in int()'s message
        data = simulate(capsys, tmp_path / "pools.jsonl")
        table = tmp_path / "latency.json"
        table.write_text(doc)
        code, out, err = run(capsys, [
            "curve", "-i", data, "--methods", "sc", "--n-grid", "1,2",
            "--budget", "latency", "--latency-table", str(table),
        ])
        assert code == 2 and out == ""
        assert f"error: latency table: {message}" in err

    def test_failed_point_reports_alike_at_any_jobs(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path / "pools.jsonl")
        results = [
            run(capsys, [
                "--jobs", jobs, "curve", "-i", data, "--methods", "sc,wsc",
                "--n-grid", "1,9", "--solver-preset", "qwen2.5-32b",
                "--verifier-preset", "qwen2.5-1.5b", "--draws", "5",
            ])
            for jobs in ("1", "2")
        ]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert code == 2 and out == ""
        assert "error: slate too large: n=9 > pool 8" in err

    def test_flops_curve_needs_solver(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path / "pools.jsonl")
        code, _, err = run(capsys, [
            "curve", "-i", data, "--methods", "sc", "--n-grid", "1,2",
            "--draws", "5",
        ])
        assert code == 2 and "error: flops budget needs a solver config" in err


class TestCost:
    def test_flag_specified_batch(self, capsys):
        code, out, _ = run(capsys, [
            "cost", "--mode", "disc",
            "--solver-preset", "qwen2.5-32b",
            "--verifier-preset", "qwen2.5-1.5b",
            "--prompt-tokens", "128", "--output-tokens", "4096",
            "--solution-tokens", "2000", "--count", "32",
        ])
        assert code == 0
        doc = json.loads(out)
        stats = [TokenStats(prompt_tokens=128, output_tokens=4096,
                            solution_tokens=2000)] * 32
        expected = pipeline_flops(
            MODEL_PRESETS["qwen2.5-32b"], MODEL_PRESETS["qwen2.5-1.5b"],
            stats, "disc",
        )
        assert doc["candidates"] == 32 and doc["mode"] == "disc"
        assert doc["total"] == pytest.approx(expected, rel=1e-6)
        assert doc["verification"]["total"] > 0

    def test_output_tokens_default_to_solution(self, capsys):
        code, out, _ = run(capsys, [
            "cost", "--solver-preset", "qwen2.5-1.5b",
            "--prompt-tokens", "10", "--solution-tokens", "50",
        ])
        assert code == 0
        doc = json.loads(out)
        stats = [TokenStats(prompt_tokens=10, output_tokens=50,
                            solution_tokens=50)]
        assert doc["total"] == pytest.approx(
            pipeline_flops(MODEL_PRESETS["qwen2.5-1.5b"], None, stats, "sc"),
            rel=1e-6,
        )

    def test_record_batch(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path / "pools.jsonl")
        code, out, _ = run(capsys, [
            "cost", "-i", data, "--mode", "sc",
            "--solver-preset", "qwen2.5-1.5b",
        ])
        assert code == 0 and json.loads(out)["candidates"] == 48

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("d = 1\nm = 1\nL = 1\nV = 1\n")
        code, out, _ = run(capsys, [
            "cost", "--solver-config", str(cfg),
            "--prompt-tokens", "1", "--output-tokens", "1",
        ])
        assert code == 0 and json.loads(out)["total"] == 34.0

    def test_solver_required(self, capsys):
        code, _, err = run(capsys, ["cost", "--prompt-tokens", "1"])
        assert code == 2 and "error: solver config required" in err

    def test_preset_and_file_conflict(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("d = 1\nm = 1\nL = 1\nV = 1\n")
        code, _, err = run(capsys, [
            "cost", "--solver-preset", "qwen2.5-32b",
            "--solver-config", str(cfg),
        ])
        assert code == 2 and "not both" in err


class TestBtloss:
    def test_diagnostics(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path / "pools.jsonl", p_correct=0.5)
        code, out, _ = run(capsys, ["btloss", "-i", data, "--l2", "0.1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == 0.1
        assert doc["retained"] + doc["dropped"] == 6
        assert doc["retained"] == len(doc["groups"]) >= 1
        for group in doc["groups"]:
            assert group["size"] == 8 == len(group["gradient"])
            assert group["loss"] >= 0.0
            # strong verifier: correct candidates score higher on average
            assert group["margin"] > 0.0

    def test_grad_check_passes(self, capsys):
        code, out, _ = run(capsys, ["btloss", "--grad-check"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True and doc["max_rel_err"] < 1e-5

    def test_unlabeled_input_fails(self, capsys, monkeypatch):
        text = jsonl(
            {"problem_id": "p", "candidate_id": "c1", "answer": "x",
             "disc_score": 1.0},
            {"problem_id": "p", "candidate_id": "c2", "answer": "y",
             "disc_score": 0.5},
        )
        code, _, err = run(capsys, ["btloss"], stdin=text,
                           monkeypatch=monkeypatch)
        assert code == 2 and "error: labels required" in err

    def test_no_learnable_groups_fails(self, capsys, monkeypatch):
        text = jsonl(
            {"problem_id": "p", "candidate_id": "c1", "answer": "x",
             "correct": True, "disc_score": 1.0},
            {"problem_id": "p", "candidate_id": "c2", "answer": "x",
             "correct": True, "disc_score": 0.5},
        )
        code, _, err = run(capsys, ["btloss"], stdin=text,
                           monkeypatch=monkeypatch)
        assert code == 2 and "error: no learnable signal" in err


class TestSimulate:
    def test_dist_needs_two_numbers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--correct-dist", "1,2,3"])
        assert exc.value.code == 2
        assert "expected two numbers, got '1,2,3'" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["18446744073709551616", "9223372036854775808"])
    def test_seed_out_of_range_fails(self, capsys, seed):
        code, out, err = run(capsys, ["--seed", seed, "simulate", "--n-problems", "1"])
        assert code == 2 and out == ""
        assert err.strip() == f"error: seed out of range [0, 2**63): {seed}"


class TestSelect:
    POOL = jsonl(
        {"problem_id": "p1", "candidate_id": "c1", "answer": "a",
         "disc_score": 1.0},
        {"problem_id": "p1", "candidate_id": "c2", "answer": "a",
         "disc_score": 3.0},
        {"problem_id": "p1", "candidate_id": "c3", "answer": "b",
         "disc_score": 2.5},
        {"problem_id": "p2", "candidate_id": "c1", "answer": "z",
         "disc_score": 0.0},
    )

    def test_reserved_answer_fails(self, capsys, monkeypatch):
        # a real answer spelled <none> would share the unselectable cluster
        pool = jsonl(
            {"problem_id": "p1", "candidate_id": "c1", "answer": "<none>",
             "correct": True, "disc_score": 0.9},
            {"problem_id": "p1", "candidate_id": "c2", "answer": "7",
             "correct": False, "disc_score": 0.1},
        )
        code, out, err = run(capsys, ["select", "--method", "bon"],
                             stdin=pool, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "error: line 1: candidate 'c1': answer '<none>' is reserved" in err

    def test_pv_objectives_raw(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["--score-transform", "raw", "select", "--method", "pv"],
            stdin=self.POOL, monkeypatch=monkeypatch,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["problem_id"] == "p1" and doc["alpha"] == 0.5
        by_key = {c["answer_key"]: c for c in doc["clusters"]}
        # N=3: mean(a)=2, penalty ln3/3; mean(b)=2.5, penalty ln3/2
        assert by_key["a"]["objective"] == pytest.approx(1.81690, abs=1e-5)
        assert by_key["b"]["objective"] == pytest.approx(2.22535, abs=1e-5)
        assert doc["chosen_answer"] == "b"

    def test_nan_alpha_fails(self, capsys, monkeypatch):
        # select --alpha nan once printed "alpha": NaN, which is not JSON
        code, out, err = run(
            capsys, ["select", "--method", "pv", "--alpha", "nan"],
            stdin=self.POOL, monkeypatch=monkeypatch,
        )
        assert code == 2 and out == "" and "error: invalid alpha" in err

    def test_transform_changes_objective(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["select", "--method", "pv"],
                           stdin=self.POOL, monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        by_key = {c["answer_key"]: c for c in doc["clusters"]}
        # sigmoid squashes into (0,1): mean(a)=0.841816, penalty unchanged
        assert by_key["a"]["objective"] == pytest.approx(0.658714, abs=1e-5)
        assert doc["chosen_answer"] == "a"

    def test_problem_id_selection(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["select", "--method", "sc", "--problem-id", "p2"],
            stdin=self.POOL, monkeypatch=monkeypatch,
        )
        assert code == 0 and json.loads(out)["chosen_answer"] == "z"

    def test_missing_problem_id(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            ["select", "--method", "sc", "--problem-id", "nope"],
            stdin=self.POOL, monkeypatch=monkeypatch,
        )
        assert code == 2 and "error: no such problem" in err

    TIE = jsonl(
        {"problem_id": "p", "candidate_id": "c1", "answer": "a",
         "disc_score": 0.5},
        {"problem_id": "p", "candidate_id": "c2", "answer": "b",
         "disc_score": 0.5},
    )

    def test_tie_breaks_by_key_without_rng(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["select", "--method", "wsc"],
                           stdin=self.TIE, monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["chosen_answer"] == "a"

    def test_random_ties_follow_seed(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["--seed", "0", "select", "--method", "wsc", "--random-ties"],
            stdin=self.TIE, monkeypatch=monkeypatch,
        )
        assert code == 0 and json.loads(out)["chosen_answer"] == "b"
        code, out, _ = run(
            capsys,
            ["--seed", "1", "select", "--method", "wsc", "--random-ties"],
            stdin=self.TIE, monkeypatch=monkeypatch,
        )
        assert code == 0 and json.loads(out)["chosen_answer"] == "a"

    CANON = jsonl(
        {"problem_id": "p", "candidate_id": "c1", "answer": "0.5"},
        {"problem_id": "p", "candidate_id": "c2", "answer": "1/2"},
        {"problem_id": "p", "candidate_id": "c3", "answer": "2"},
    )

    def test_canonicalization_merges_votes(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["--canon", "numeric", "select", "--method", "sc"],
            stdin=self.CANON, monkeypatch=monkeypatch,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["chosen_answer"] == "1/2"
        assert {c["answer_key"]: c["n"] for c in doc["clusters"]} == \
            {"1/2": 2, "2": 1}
        code, out, _ = run(capsys, ["select", "--method", "sc"],
                           stdin=self.CANON, monkeypatch=monkeypatch)
        assert code == 0
        assert len(json.loads(out)["clusters"]) == 3


class TestSubprocess:
    def test_module_entry_point_is_deterministic(self, tmp_path):
        data = tmp_path / "pools.jsonl"
        sim = subprocess.run(
            [sys.executable, "-m", "verisel", "simulate", "-o", str(data),
             "--n-problems", "5", "--pool-size", "8"],
            capture_output=True, text=True,
        )
        assert sim.returncode == 0

        def evaluate(jobs):
            return subprocess.run(
                [sys.executable, "-m", "verisel", "--seed", "5",
                 "--jobs", str(jobs), "evaluate", "-i", str(data),
                 "--method", "pv", "-n", "4", "--draws", "100"],
                capture_output=True, text=True,
            )

        first = evaluate(1)
        assert first.returncode == 0
        again = evaluate(1)
        parallel = evaluate(2)
        assert first.stdout == again.stdout == parallel.stdout
        assert json.loads(first.stdout)["method"] == "pv"


class TestBtlossOutputFile:
    def test_grad_check_writes_the_output_file(self, capsys, tmp_path):
        target = tmp_path / "audit.json"
        code, out, _ = run(capsys, ["btloss", "--grad-check", "-o", str(target)])
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["pass"] is True and doc["checks"] > 0
        code, stdout, _ = run(capsys, ["btloss", "--grad-check"])
        assert stdout == target.read_text()
