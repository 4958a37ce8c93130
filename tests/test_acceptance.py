"""Acceptance gate: ten criteria, one test and one visible verdict each.

Every test records a single "[criterion NN] PASS/FAIL ..." line before
asserting; the lines are printed in the terminal summary (and immediately
when capture is off), so every `pytest -v` run shows the gate's verdicts.
A FAIL line is recorded honestly and the assertion is then allowed to
fail; nothing here is loosened to stay green.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from verisel import (
    BUNDLED_LATENCY,
    Candidate,
    EmptyPoolError,
    EvalConfig,
    MODEL_PRESETS,
    Problem,
    ScoredGroup,
    SynthSpec,
    bootstrap_accuracy,
    bt_loss,
    bt_loss_gradient,
    budget_curve,
    flops_disc_verification,
    flops_generation,
    generate_pool,
    pass_at_n,
    pipeline_breakdown,
    select_answer,
)
from verisel.core import cluster_by_answer
from verisel.costs import ModelConfig
from verisel.evaluate import _eval_problems
from verisel.selection import (
    candidate_gen_scores,
    candidate_scores,
    select_bon,
    select_gpv,
    select_pv,
    select_sc,
    select_wsc,
)

from oracles import (
    loop_generation_flops,
    oracle_bon,
    oracle_gpv,
    oracle_pv,
    oracle_sc,
    oracle_wsc,
)
from pools import oracle_gen_view, oracle_view, random_problem


import conftest


def report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {verdict} {detail}"
    conftest.acceptance_verdicts.append(line)
    print(line, file=sys.__stdout__, flush=True)


def test_criterion_01_selection_rules_match_brute_force():
    rng = np.random.default_rng(1001)
    mismatches = 0
    pools = 10_000
    t0 = time.perf_counter()
    for i in range(pools):
        problem = random_problem(rng, min_size=1, max_size=64, pid=f"p{i}")
        view = oracle_view(problem)
        gen_view = oracle_gen_view(problem)
        m = len(problem.candidates[0].gen_scores)
        clusters = cluster_by_answer(problem)
        raw = candidate_scores(problem.candidates, "raw")
        gen_raw = candidate_gen_scores(problem.candidates, "raw")

        bon = select_bon(problem.candidates)
        agreed = (
            select_sc(clusters).chosen_answer == oracle_sc(view)
            and (bon.chosen_candidate, bon.chosen_answer) == oracle_bon(view)
            and select_wsc(clusters, raw).chosen_answer == oracle_wsc(view)
            and select_pv(clusters, raw, alpha=0.5).chosen_answer
            == oracle_pv(view, 0.5)
            and select_gpv(clusters, gen_raw, alpha=0.1,
                           m_verifications=m).chosen_answer
            == oracle_gpv(gen_view, 0.1, m)
        )
        mismatches += not agreed
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report(1, ok,
           f"5 rules x {pools} pools: {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_02_limit_identities():
    rng = np.random.default_rng(1002)
    checked = {"pv_alpha0": 0, "pv_alpha_inf": 0, "gpv_m1": 0, "wsc_ones": 0}
    mismatches = 0

    while checked["pv_alpha_inf"] < 1000 or checked["pv_alpha0"] < 1000:
        problem = random_problem(rng, min_size=1, max_size=24)
        view = oracle_view(problem)
        clusters = cluster_by_answer(problem)
        raw = candidate_scores(problem.candidates, "raw")

        if checked["pv_alpha0"] < 1000:
            mismatches += (
                select_pv(clusters, raw, alpha=0.0).chosen_answer
                != oracle_pv(view, 0.0)
            )
            checked["pv_alpha0"] += 1

        counts = sorted(
            (cl.n_a for cl in clusters if cl.selectable), reverse=True
        )
        unique_plurality = len(counts) == 1 or (
            len(counts) > 1 and counts[0] > counts[1]
        )
        if unique_plurality and counts and checked["pv_alpha_inf"] < 1000:
            mismatches += (
                select_pv(clusters, raw, alpha=1e9).chosen_answer
                != select_sc(clusters).chosen_answer
            )
            checked["pv_alpha_inf"] += 1

    for _ in range(1000):
        problem = random_problem(rng, min_size=1, max_size=24)
        clusters = cluster_by_answer(problem)
        raw = candidate_scores(problem.candidates, "raw")
        singles = {cid: (s,) for cid, s in raw.items()}
        for alpha in (0.0, 0.1, 0.5, 2.0):
            mismatches += (
                select_gpv(clusters, singles, alpha=alpha,
                           m_verifications=1).chosen_answer
                != select_pv(clusters, raw, alpha=alpha).chosen_answer
            )
        checked["gpv_m1"] += 1

        ones = {cid: 1.0 for cid in raw}
        mismatches += (
            select_wsc(clusters, ones).chosen_answer
            != select_sc(clusters).chosen_answer
        )
        checked["wsc_ones"] += 1

    ok = mismatches == 0 and all(v >= 1000 for v in checked.values())
    report(2, ok, f"{mismatches} mismatches over {checked}")
    assert mismatches == 0
    assert all(v >= 1000 for v in checked.values())


def test_criterion_03_pessimistic_hand_check():
    candidates = tuple(
        Candidate(candidate_id=f"c{i}", answer_raw=ans, answer_key=ans,
                  disc_score=score)
        for i, (ans, score) in enumerate(
            [("A", 0.5), ("A", 0.5), ("A", 0.5), ("B", 0.9)]
        )
    )
    clusters = cluster_by_answer(Problem(problem_id="hand", candidates=candidates))
    raw = candidate_scores(candidates, "raw")

    mild = select_pv(clusters, raw, alpha=0.5)
    objectives = {d.answer_key: d.objective for d in mild.cluster_diagnostics}
    harsh = select_pv(clusters, raw, alpha=2.0)
    harsh_obj = {d.answer_key: d.objective for d in harsh.cluster_diagnostics}

    ok = (
        mild.chosen_answer == "B"
        and harsh.chosen_answer == "A"
        and math.isclose(objectives["A"], 0.3267, abs_tol=1e-4)
        and math.isclose(objectives["B"], 0.5534, abs_tol=1e-4)
        and math.isclose(harsh_obj["A"], -0.1931, abs_tol=1e-4)
        and math.isclose(harsh_obj["B"], -0.4863, abs_tol=1e-4)
    )
    report(3, ok,
           f"alpha=0.5 -> {mild.chosen_answer} {objectives}; "
           f"alpha=2 -> {harsh.chosen_answer} {harsh_obj}")
    assert mild.chosen_answer == "B" and harsh.chosen_answer == "A"
    assert objectives["A"] == pytest.approx(0.3267, abs=1e-4)
    assert objectives["B"] == pytest.approx(0.5534, abs=1e-4)
    assert harsh_obj["A"] == pytest.approx(-0.1931, abs=1e-4)
    assert harsh_obj["B"] == pytest.approx(-0.4863, abs=1e-4)


def test_criterion_04_ranking_loss_and_gradient():
    ln2_err = abs(
        bt_loss(ScoredGroup((0.3, 0.3), (True, False))) - math.log(2)
    )

    rng = np.random.default_rng(1004)
    h = 1e-5
    worst_rel = 0.0
    worst_shift = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 17))
        labels = np.zeros(size, dtype=bool)
        labels[: int(rng.integers(1, size))] = True
        rng.shuffle(labels)
        scores = rng.uniform(-4, 4, size)
        lam = float(rng.choice([0.0, 0.01, 1.0]))
        group = ScoredGroup(tuple(scores), tuple(bool(b) for b in labels))
        grad = bt_loss_gradient(group, lam)
        for k in range(size):
            bumped = scores.copy()
            bumped[k] += h
            up = bt_loss(ScoredGroup(tuple(bumped), group.labels), lam)
            bumped[k] -= 2 * h
            down = bt_loss(ScoredGroup(tuple(bumped), group.labels), lam)
            fd = (up - down) / (2 * h)
            worst_rel = max(worst_rel,
                            float(abs(grad[k] - fd) / max(abs(fd), 1e-8)))
        base = bt_loss(group, 0.0)
        for shift in (-5.0, 0.7, 30.0):
            moved = ScoredGroup(tuple(s + shift for s in scores), group.labels)
            worst_shift = max(worst_shift, abs(bt_loss(moved, 0.0) - base))

    ok = ln2_err < 1e-12 and worst_rel < 1e-5 and worst_shift < 1e-10
    report(4, ok,
           f"ln2 err {ln2_err:.1e}, fd rel {worst_rel:.1e}, "
           f"shift err {worst_shift:.1e} over 1000 groups")
    assert ln2_err < 1e-12
    assert worst_rel < 1e-5
    assert worst_shift < 1e-10


def test_criterion_05_flops_loop_oracle():
    mismatches = 0
    cases = 0
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            for L in (1, 2, 3):
                for V in (1, 2, 3):
                    cfg = ModelConfig(d=d, m=m, L=L, V=V)
                    for t_in in range(9):
                        for t_out in range(9):
                            mismatches += (
                                flops_generation(cfg, t_in, t_out).total
                                != loop_generation_flops(d, m, L, V,
                                                         t_in, t_out)
                            )
                            cases += 1
    toy = flops_generation(ModelConfig(d=1, m=1, L=1, V=1), 1, 1).total
    ok = mismatches == 0 and toy == 34
    report(5, ok, f"{cases} exact cases, {mismatches} mismatches, toy={toy}")
    assert mismatches == 0
    assert toy == 34


def _back_solve(cost_of, target, hi):
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cost_of(mid) < target:
            lo = mid + 1
        else:
            hi = mid
    if lo > 1 and target - cost_of(lo - 1) <= cost_of(lo) - target:
        return lo - 1
    return lo


def test_criterion_06_verification_compute_share():
    solver = MODEL_PRESETS["qwen2.5-32b"]
    verifier = MODEL_PRESETS["qwen2.5-1.5b"]
    batch = 32
    gen_target = 2.0e16 / batch
    ver_target = 4.1e14 / batch

    t_out = _back_solve(
        lambda t: flops_generation(solver, 128, t).total, gen_target, 100_000
    )
    t_sol = _back_solve(
        lambda t: flops_disc_verification(verifier, t).total, ver_target, 50_000
    )

    from verisel import TokenStats

    stats = [
        TokenStats(prompt_tokens=128, output_tokens=t_out,
                   solution_tokens=min(t_sol, t_out))
    ] * batch
    parts = pipeline_breakdown(solver, verifier, stats, "disc")
    ratio = parts["verification"].total / parts["generation"].total

    ok = 0 < t_sol <= t_out and 0.018 <= ratio <= 0.022
    report(6, ok,
           f"t_out={t_out}, t_sol={t_sol}, "
           f"verification/generation = {ratio:.4f} (want 0.020 +/- 10%)")
    assert 0 < t_sol <= t_out
    assert 0.018 <= ratio <= 0.022


def test_criterion_07_measured_latency_totals():
    problems = generate_pool(
        SynthSpec(seed=7, n_problems=3, pool_size=32, p_correct=0.5,
                  gen_verifications=2)
    )
    base = EvalConfig(n=1, draws=5, seed=1)
    (disc_pt,) = budget_curve(
        problems, ["wsc"], n_grid=(32,), budget_mode="latency",
        latency_table=BUNDLED_LATENCY, cfg=base,
    )
    (gen_pt,) = budget_curve(
        problems, ["gpv"], n_grid=(32,), m_grid=(2,), budget_mode="latency",
        latency_table=BUNDLED_LATENCY, cfg=base,
    )
    disc_err = abs(disc_pt.budget - 1435.66)
    gen_err = abs(gen_pt.budget - 4857.7)
    ok = disc_err < 1e-9 and gen_err < 1e-9
    report(7, ok,
           f"disc@32 = {disc_pt.budget}s, gpv@32 M=2 = {gen_pt.budget}s")
    assert disc_err < 1e-9
    assert gen_err < 1e-9


def test_criterion_08_enumerated_evaluation_is_exact():
    rng = np.random.default_rng(1008)
    methods = ("sc", "bon", "wsc", "pv", "gpv")
    mismatches = 0
    slates = 0
    for trial in range(40):
        k = int(rng.integers(4, 9))
        problem = random_problem(rng, min_size=k, max_size=k, labeled=True,
                                 pid=f"e{trial}")
        for method in methods:
            for n in (1, 2, 3):
                cfg = EvalConfig(n=n, method=method)
                rows = _eval_problems([problem], cfg, True)[0]
                for row, idx in zip(
                    rows, itertools.combinations(range(k), n)
                ):
                    sub = Problem(
                        problem_id=problem.problem_id,
                        candidates=tuple(problem.candidates[i] for i in idx),
                    )
                    try:
                        chosen = select_answer(
                            sub, method, transform=cfg.transform
                        ).chosen_answer
                        want = float(next(
                            bool(c.correct) for c in problem.candidates
                            if c.cluster_key == chosen
                        ))
                    except EmptyPoolError:
                        want = 0.0
                    mismatches += row != want
                    slates += 1

    two_of_four = Problem(
        problem_id="pass",
        candidates=tuple(
            Candidate(candidate_id=f"c{i}", answer_raw=f"a{i}",
                      answer_key=f"a{i}", correct=i < 2)
            for i in range(4)
        ),
    )
    pass_err = abs(pass_at_n(two_of_four, 2) - 5 / 6)
    ok = mismatches == 0 and pass_err < 1e-12
    report(8, ok,
           f"{slates} enumerated slates, {mismatches} mismatches, "
           f"pass@2(k=4,c=2) err {pass_err:.1e}")
    assert mismatches == 0
    assert pass_err < 1e-12


def test_criterion_09_synthetic_reproduction():
    t0 = time.perf_counter()
    problems = generate_pool(
        SynthSpec(seed=42, n_problems=200, pool_size=128, p_correct=0.5,
                  wrong_tail=0.02)
    )

    def accuracy(method, n):
        return bootstrap_accuracy(
            problems, EvalConfig(n=n, method=method, draws=1000, seed=42)
        ).mean

    sc32 = accuracy("sc", 32)
    wsc32 = accuracy("wsc", 32)
    pv32 = accuracy("pv", 32)
    bon8 = accuracy("bon", 8)
    bon128 = accuracy("bon", 128)
    elapsed = time.perf_counter() - t0

    ok = (
        wsc32 > sc32 and pv32 > sc32 and bon128 < bon8 and elapsed < 60.0
    )
    report(9, ok,
           f"sc@32={sc32:.4f} wsc@32={wsc32:.4f} pv@32={pv32:.4f} "
           f"bon@8={bon8:.4f} bon@128={bon128:.4f} ({elapsed:.1f}s)")
    assert elapsed < 60.0
    assert wsc32 > sc32
    assert pv32 > sc32
    assert bon128 < bon8


def test_criterion_10_byte_identical_at_any_parallelism(tmp_path):
    data = tmp_path / "pools.jsonl"
    sim = subprocess.run(
        [sys.executable, "-m", "verisel", "simulate", "-o", str(data),
         "--n-problems", "6", "--pool-size", "8", "--gen-verifications", "2"],
        capture_output=True, text=True,
    )
    assert sim.returncode == 0, sim.stderr

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "verisel", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    eval_args = ["evaluate", "-i", str(data), "--method", "pv", "-n", "4",
                 "--draws", "200"]
    curve_args = ["curve", "-i", str(data), "--methods", "sc,pv,gpv",
                  "--n-grid", "1,2,4", "--m-grid", "2",
                  "--solver-preset", "qwen2.5-32b",
                  "--verifier-preset", "qwen2.5-1.5b",
                  "--verify-out", "64", "--draws", "100"]

    eval_outs = [
        run(["--seed", "5", "--jobs", jobs, *eval_args])
        for jobs in ("1", "1", "2", "4")
    ]
    curve_outs = [
        run(["--seed", "5", "--jobs", jobs, *curve_args])
        for jobs in ("1", "2")
    ]
    eval_ok = len(set(eval_outs)) == 1
    curve_ok = len(set(curve_outs)) == 1
    ok = eval_ok and curve_ok
    report(10, ok,
           f"evaluate x{len(eval_outs)} runs identical={eval_ok}, "
           f"curve x{len(curve_outs)} runs identical={curve_ok}")
    assert eval_ok
    assert curve_ok
    assert json.loads(eval_outs[0])["method"] == "pv"
