"""The traced run: per-layer metrics from spans.

In order, inside this process: make the inputs (traced, under "inputs");
time `import verisel.cli` in fresh processes; replay the workload's steps
untraced, traced (under "replay") and untraced again, and take the traced
time minus the mean untraced time as the tracing overhead; on budget-curve, evaluate every curve point again at
--jobs 1 (under "points"); time slate draws alone over the keys the steps
draw (under "draws"); and run the layer probe (under "probe").

Each per-layer metric is taken from the workload's own spans (every root
but "probe") when its steps reach that layer, and from the probe's spans
otherwise. The probe calls every module's public functions on a small
pool of the dataset-pass kind, so every metric has a value on every
workload; README.md lists which source each metric has on which workload.
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import trace
from dataset_pass import L2, METHODS
from workloads import SOLVER, VERIFIER, BudgetCurve

IMPORT_SAMPLES = 3
# The probe: bootstrap at N=8 with 20 draws per problem, then a small
# FLOPs curve whose points are evaluated again at --jobs 2.
PROBE_N, PROBE_DRAWS = 8, 20
PROBE_N_GRID, PROBE_M_GRID, PROBE_CURVE_DRAWS = (1, 4, 16), (1, 2), 10


def import_seconds(rec: trace.Recorder, env: dict) -> float:
    """Median over fresh processes of `import verisel.cli`."""
    code = ("import time; t = time.perf_counter(); import verisel.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.split()[-1]))
        rec.add("cli.import", samples[-1])
    return statistics.median(samples)


def timed_replay(wl, vs) -> float:
    start = time.perf_counter()
    wl.replay(vs)
    return time.perf_counter() - start


def time_draws(rec: trace.Recorder, seed: int, keys) -> None:
    """Draw the slates the evaluator would, without scoring them."""
    from verisel.evaluate import slate_rng

    with rec.span("evaluate.draw", count=sum(k[3] for k in keys)):
        for pid, k, n, draws in keys:
            for t in range(draws):
                slate_rng(seed, pid, t).choice(k, size=n, replace=False)


def points_sweep(rec: trace.Recorder, wl: BudgetCurve, vs) -> None:
    """Every point of the curve, evaluated again at --jobs 1."""
    problems = vs.ingest(str(wl.input))
    with trace.instrument(rec), rec.span("points"):
        for method, n, m in wl.points():
            cfg = vs.EvalConfig(n=n, method=method, draws=wl.DRAWS, seed=wl.seed,
                                m_verifications=m if method == "gpv" else None)
            vs.bootstrap_accuracy(problems, cfg, jobs=1)


def probe(rec: trace.Recorder, seed: int, work: Path, vs) -> None:
    raw, path = work / "probe-synth.jsonl", work / "probe.jsonl"
    inputs.write_synth(raw, seed, inputs.PROBE_SPEC)
    inputs.numeric_rewrite(raw, path, seed)
    problems = vs.ingest(str(path), canon="numeric")
    for p in problems:
        vs.cluster_by_answer(p)
    for p in problems:
        for method in METHODS:
            vs.select_answer(p, method)
    for p in problems:
        group = vs.group_from_problem(p)
        if group.learnable:
            vs.bt_loss(group, L2)
            vs.bt_loss_gradient(group, L2)
    for method in METHODS:
        cfg = vs.EvalConfig(n=PROBE_N, method=method, draws=PROBE_DRAWS, seed=seed)
        vs.emit_report(vs.bootstrap_accuracy(problems, cfg, jobs=1), "json")
    k = len(problems[0].candidates)
    time_draws(rec, seed,
               [(p.problem_id, k, PROBE_N, PROBE_DRAWS) for p in problems] * len(METHODS))
    base = vs.EvalConfig(n=1, draws=PROBE_CURVE_DRAWS, seed=seed)
    curve = vs.budget_curve(
        problems, METHODS, PROBE_N_GRID, PROBE_M_GRID,
        solver_cfg=vs.MODEL_PRESETS[SOLVER[0]], verifier_cfg=vs.MODEL_PRESETS[VERIFIER[0]],
        cfg=base, jobs=1,
    )
    vs.emit_report(curve, "csv")
    with rec.span("points"):
        for pt in curve:
            cfg = vs.EvalConfig(n=pt.n, method=pt.method, draws=PROBE_CURVE_DRAWS,
                                seed=seed, m_verifications=pt.m or None)
            vs.bootstrap_accuracy(problems, cfg, jobs=2)


# Roots to take a metric's spans from, in order of preference: the steps
# themselves, then the rest of the workload's own work, then the probe.
OWN_FIRST = (("replay",), ("inputs", "points", "draws"), ("probe",))
REPLAY_ONLY = (("replay",), ("probe",))


class Spans:
    """Picks the spans a metric is computed from: the workload's own, else
    the probe's."""

    def __init__(self, rec: trace.Recorder):
        self.rec = rec
        self.root = {s["id"]: rec.root(s) for s in rec.spans}

    def parent_name(self, s: dict) -> str:
        return "" if s["parent"] is None else self.rec.spans[s["parent"]]["name"]

    def pick(self, name: str, pred=lambda s: True, tiers=OWN_FIRST):
        """The matching spans of the first tier of roots that has any."""
        found = [s for s in self.rec.spans if s["name"] == name and pred(s)]
        for roots in tiers:
            chosen = [s for s in found if self.root[s["id"]] in roots]
            if chosen and sum(s["count"] for s in chosen):
                return chosen
        raise RuntimeError(f"traced run recorded no {name} work")


def _dur(spans) -> float:
    return sum(s["dur"] for s in spans)


def _count(spans) -> int:
    return sum(s["count"] for s in spans)


def _us_per(spans) -> float:
    return 1e6 * _dur(spans) / _count(spans)


def per_layer(rec: trace.Recorder, import_s: float, wall_u: float, wall_t: float) -> dict:
    sp = Spans(rec)
    attr = lambda key, value: lambda s: s["attrs"].get(key) == value  # noqa: E731
    at_jobs1 = attr("jobs", 1)
    m = {"cli.import_s": (import_s, "s")}

    ingest = sp.pick("records.ingest")
    m["records.ingest.records_per_s"] = (_count(ingest) / _dur(ingest), "records/s")
    written = sp.pick("records.write_records")
    m["records.write_records.records_per_s"] = (_count(written) / _dur(written), "records/s")
    emitted = sp.pick("records.emit_report")
    m["records.emit_report.s"] = (_dur(emitted) / len(emitted), "s")
    m["core.cluster_by_answer.us_per_pool"] = (_us_per(sp.pick("core.cluster_by_answer")), "us")
    m["core.canonicalize_answer.us_per_call"] = (
        _us_per(sp.pick("core.canonicalize_answer", attr("mode", "numeric"))), "us")
    for method in METHODS:
        m[f"selection.select_answer.us_per_pool.{method}"] = (
            _us_per(sp.pick("selection.select_answer", attr("method", method))), "us")
    m["ranking.bt_loss.us_per_group"] = (_us_per(sp.pick("ranking.bt_loss")), "us")
    m["ranking.bt_loss_gradient.us_per_group"] = (
        _us_per(sp.pick("ranking.bt_loss_gradient")), "us")

    for method in ("sc", "bon", "wsc", "pv"):
        spans = sp.pick("evaluate.bootstrap_accuracy",
                        lambda s, x=method: s["attrs"]["method"] == x and at_jobs1(s))
        m[f"evaluate.bootstrap_accuracy.us_per_slate.{method}"] = (_us_per(spans), "us")
    draw_us = _us_per(sp.pick("evaluate.draw"))
    m["evaluate.draw.us_per_slate"] = (draw_us, "us")
    every_slate = _us_per(sp.pick("evaluate.bootstrap_accuracy", at_jobs1))
    m["evaluate.score.us_per_slate"] = (every_slate - draw_us, "us")

    curves = sp.pick("evaluate.budget_curve")
    m["evaluate.budget_curve.s"] = (_dur(curves) / len(curves), "s")
    for jobs in (1, 2):
        points = sp.pick(
            "evaluate.bootstrap_accuracy",
            lambda s, j=jobs: s["attrs"]["jobs"] == j
            and sp.parent_name(s) in ("evaluate.budget_curve", "points"),
        )
        m[f"evaluate.bootstrap_accuracy.s_per_point.jobs{jobs}"] = (
            _dur(points) / len(points), "s")
    for mode in ("sc", "disc", "gen"):
        m[f"costs.pipeline_flops.us_per_candidate.{mode}"] = (
            _us_per(sp.pick("costs.pipeline_flops", attr("mode", mode))), "us")
    in_curve = sp.pick("costs.pipeline_flops",
                       lambda s: sp.parent_name(s) == "evaluate.budget_curve")
    curves_costed = {s["parent"] for s in in_curve}
    m["costs.pipeline_flops.s_per_curve"] = (_dur(in_curve) / len(curves_costed), "s")

    m["evaluate.bootstrap_accuracy.slates"] = (
        _count(sp.pick("evaluate.bootstrap_accuracy", tiers=REPLAY_ONLY)), "count")
    m["evaluate.budget_curve.points"] = (
        _count(sp.pick("evaluate.budget_curve", tiers=REPLAY_ONLY)), "count")
    m["records.ingest.records"] = (_count(sp.pick("records.ingest", tiers=REPLAY_ONLY)), "count")
    m["costs.pipeline_flops.candidates"] = (
        _count(sp.pick("costs.pipeline_flops", tiers=REPLAY_ONLY)), "count")

    m["trace.overhead_s"] = (wall_t - wall_u, "s")
    m["trace.overhead_pct"] = (100 * (wall_t - wall_u) / wall_u, "%")
    return m


def run(wl, env: dict, stem: Path) -> dict:
    import verisel
    import verisel.cli  # noqa: F401  (replays call verisel.cli.main)

    rec = trace.Recorder()
    with trace.instrument(rec), rec.span("inputs"):
        wl.prepare()
    import_s = import_seconds(rec, env)

    # The reference data above stays alive; keep the collector from
    # rescanning it during the replays, as it would not in a fresh process.
    gc.freeze()
    # Untraced, traced, untraced: the first replay also pays one-off costs
    # (lazy imports, caches), which the mean of the two untraced ones shares
    # out instead of charging them to either side.
    untraced_walls = [timed_replay(wl, verisel)]
    errors = wl.check()
    untraced_outputs = wl.outputs()
    with trace.instrument(rec), rec.span("replay"):
        wall_t = timed_replay(wl, verisel)
    traced_outputs = wl.outputs()
    untraced_walls.append(timed_replay(wl, verisel))
    wall_u = statistics.fmean(untraced_walls)
    if not traced_outputs == untraced_outputs == wl.outputs():
        errors.append("the three replays' outputs differ")

    if isinstance(wl, BudgetCurve):
        points_sweep(rec, wl, verisel)
    keys = wl.draw_keys()
    if keys:
        with rec.span("draws"):
            time_draws(rec, wl.seed, keys)
    with trace.instrument(rec), rec.span("probe"):
        probe(rec, wl.seed, wl.work, verisel)

    metrics = per_layer(rec, import_s, wall_u, wall_t)
    rec.write(stem.with_suffix(".jsonl"))
    self_times = {root: rec.self_times(root)
                  for root in ("inputs", "replay", "points", "draws", "probe")}
    summary = {
        "replay_untraced_s": untraced_walls,
        "replay_traced_s": wall_t,
        "overhead_s": wall_t - wall_u,
        "spans": len(rec.spans),
        "self_times": self_times,
    }
    stem.with_suffix(".summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"replay: untraced {wall_u:.3f} s, traced {wall_t:.3f} s, "
          f"overhead {wall_t - wall_u:+.3f} s; self time per span:", file=sys.stderr)
    for name, row in sorted(self_times["replay"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:34s} calls {row['calls']:7d}  count {row['count']:8d}  "
              f"total {row['total_s']:8.3f} s  self {row['self_s']:8.3f} s",
              file=sys.stderr)

    steps = len(wl.commands())
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": 3 * steps,
        "failed": 0,
        "metrics": metrics,
        "summary": summary,
    }
