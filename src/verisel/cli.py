"""Command-line interface.

Subcommands: evaluate (bootstrap accuracy of one method), curve (accuracy
vs. budget over a slate-size grid), cost (FLOPs breakdowns), btloss
(ranking-loss diagnostics over labeled groups), simulate (synthetic pools),
and select (one-shot selection on a single pool, for debugging). Records
travel as JSON lines; reports leave as JSON or CSV on stdout.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from typing import Optional

import numpy as np

from .core import TokenStats, VeriselError
from .costs import (
    BUNDLED_LATENCY,
    MODEL_PRESETS,
    PIPELINE_MODES,
    LatencyTable,
    ModelConfig,
    pipeline_breakdown,
)
from .evaluate import EvalConfig, bootstrap_accuracy, budget_curve
from .ranking import (
    audit_gradient,
    bt_loss,
    bt_loss_gradient,
    group_from_problem,
    score_margin,
)
from .records import emit_report, ingest, ingest_stats, records_text
from .selection import METHODS, SCORE_TRANSFORMS, select_answer
from .synth import SynthSpec, generate_pool


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _float_pair(text: str) -> tuple[float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two numbers, got {text!r}")
    return parts[0], parts[1]


def _write_out(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_problems(args: argparse.Namespace):
    problems = ingest(args.input, canon=args.canon)
    print(ingest_stats(problems).describe(), file=sys.stderr)
    return problems


def _model_config(preset: Optional[str], path: Optional[str]) -> Optional[ModelConfig]:
    if preset is not None and path is not None:
        raise ValueError("give a preset or a config file, not both")
    if preset is not None:
        try:
            return MODEL_PRESETS[preset]
        except KeyError:
            raise ValueError(
                f"unknown preset {preset!r}; have {sorted(MODEL_PRESETS)}"
            ) from None
    if path is not None:
        return ModelConfig.from_file(path)
    return None


def _from_flags(cls, args: argparse.Namespace, **given):
    """cls built from given plus every parsed flag whose dest is a field;
    fields with neither keep their defaults."""
    flags = {f.name: getattr(args, f.name) for f in fields(cls) if f.name in args}
    return cls(**flags, **given)


def cmd_evaluate(args: argparse.Namespace) -> int:
    problems = _read_problems(args)
    report = bootstrap_accuracy(problems, _from_flags(EvalConfig, args), jobs=args.jobs)
    _write_out(emit_report(report, args.format), args.output)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    problems = _read_problems(args)
    table = (
        LatencyTable.from_file(args.latency_table)
        if args.latency_table else BUNDLED_LATENCY
    )
    points = budget_curve(
        problems,
        methods=[m.strip() for m in args.methods.split(",") if m.strip()],
        n_grid=_int_list(args.n_grid),
        m_grid=_int_list(args.m_grid),
        solver_cfg=_model_config(args.solver_preset, args.solver_config),
        verifier_cfg=_model_config(args.verifier_preset, args.verifier_config),
        budget_mode=args.budget,
        latency_table=table,
        cfg=_from_flags(EvalConfig, args, n=1),
        verification_out_tokens=args.verify_out,
        jobs=args.jobs,
    )
    _write_out(emit_report(points, args.format), args.output)
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    solver = _model_config(args.solver_preset, args.solver_config)
    if solver is None:
        raise ValueError("solver config required")
    verifier = _model_config(args.verifier_preset, args.verifier_config)

    if args.input is not None:
        problems = _read_problems(args)
        stats = [c.token_stats for p in problems for c in p.candidates]
    else:
        out_tokens = (
            args.solution_tokens if args.output_tokens is None
            else args.output_tokens
        )
        stats = [
            TokenStats(
                prompt_tokens=args.prompt_tokens,
                output_tokens=out_tokens,
                solution_tokens=args.solution_tokens,
            )
        ] * args.count

    parts = pipeline_breakdown(
        solver, verifier, stats, args.mode,
        m_verifications=args.m_verifications,
        verification_out_tokens=args.verify_out,
    )
    doc = {
        "mode": args.mode,
        "candidates": len(stats),
        **parts,
        "total": float(parts["generation"].total + parts["verification"].total),
    }
    _write_out(emit_report(doc, "json"), args.output)
    return 0


def cmd_btloss(args: argparse.Namespace) -> int:
    if args.grad_check:
        checks, worst = audit_gradient(args.seed)
        ok = worst < 1e-5
        doc = {"checks": checks, "max_rel_err": worst, "pass": ok}
        print(emit_report(doc, "json"), end="")
        return 0 if ok else 1
    problems = _read_problems(args)
    groups = []
    dropped = 0
    for problem in problems:
        group = group_from_problem(problem)
        if not group.learnable:
            dropped += 1
            continue
        gradient = bt_loss_gradient(group, args.l2)
        groups.append(
            {
                "problem_id": problem.problem_id,
                "size": len(group.scores),
                "loss": bt_loss(group, args.l2),
                "margin": score_margin(group),
                "gradient": [float(g) for g in gradient],
            }
        )
    if not groups:
        raise ValueError("no learnable signal")
    doc = {
        "lambda": args.l2,
        "retained": len(groups),
        "dropped": dropped,
        "mean_loss": sum(g["loss"] for g in groups) / len(groups),
        "groups": groups,
    }
    _write_out(emit_report(doc, "json"), args.output)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _from_flags(SynthSpec, args)
    _write_out(records_text(generate_pool(spec)), args.output)
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    problems = _read_problems(args)
    if args.problem_id is not None:
        matches = [p for p in problems if p.problem_id == args.problem_id]
        if not matches:
            raise ValueError(f"no such problem: {args.problem_id!r}")
        problem = matches[0]
    else:
        problem = problems[0]
    rng = np.random.default_rng(args.seed) if args.random_ties else None
    result = select_answer(
        problem,
        args.method,
        alpha=args.alpha,
        m_verifications=args.m_verifications,
        transform=args.transform,
        rng=rng,
    )
    doc = {
        "problem_id": problem.problem_id,
        "method": result.method,
        "chosen_answer": result.chosen_answer,
        "chosen_candidate": result.chosen_candidate,
        "alpha": result.alpha,
        "m": result.m,
        "clusters": [
            {
                "answer_key": d.answer_key,
                "n": d.n_a,
                "sum_score": d.sum_score,
                "mean_score": d.mean_score,
                "penalty": d.penalty,
                "objective": d.objective,
            }
            for d in result.cluster_diagnostics
        ],
    }
    _write_out(emit_report(doc, "json"), args.output)
    return 0


def _add_io(sub: argparse.ArgumentParser, input_required: bool = True) -> None:
    sub.add_argument(
        "-i", "--input", default="-" if input_required else None,
        help="record file (JSON lines), or - for stdin",
    )
    sub.add_argument("-o", "--output", default=None, help="write here instead of stdout")


def _add_eval_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--draws", type=int, default=1000, help="slates per problem")
    sub.add_argument("--ci-level", type=float, default=0.95)
    sub.add_argument(
        "--ci-method", choices=("normal", "percentile"), default="normal"
    )
    sub.add_argument(
        "--replacement", action="store_true",
        help="sample slates with replacement",
    )
    sub.add_argument(
        "--alpha", type=float, default=None,
        help="pessimism weight for pv/gpv (defaults: pv 0.5, gpv 0.1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verisel",
        description="Budget-aware answer selection over scored candidate pools.",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--score-transform", dest="transform", choices=SCORE_TRANSFORMS,
        default="sigmoid",
        help="how raw verifier logits enter wsc/pv/gpv aggregation",
    )
    parser.add_argument(
        "--canon", choices=("exact", "numeric"), default="exact",
        help="answer canonicalization mode at ingest",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for evaluate and curve, at most the CPU count "
        "(results are identical at any level)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("evaluate", help="bootstrap accuracy of one method")
    _add_io(sub)
    sub.add_argument("--method", required=True, choices=METHODS)
    sub.add_argument("-n", type=int, required=True, help="slate size")
    sub.add_argument("-M", "--m-verifications", type=int, default=None)
    _add_eval_options(sub)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(func=cmd_evaluate)

    sub = commands.add_parser("curve", help="accuracy vs. compute budget")
    _add_io(sub)
    sub.add_argument("--methods", default="sc,bon,wsc,pv", help="comma-separated")
    sub.add_argument("--n-grid", default="1,2,4,8,16,32")
    sub.add_argument("--m-grid", default="2", help="verification counts for gpv")
    sub.add_argument("--budget", choices=("flops", "latency"), default="flops")
    sub.add_argument("--solver-preset", choices=sorted(MODEL_PRESETS))
    sub.add_argument("--solver-config", help="key-value file: d, m, L, V")
    sub.add_argument("--verifier-preset", choices=sorted(MODEL_PRESETS))
    sub.add_argument("--verifier-config")
    sub.add_argument(
        "--latency-table", default=None,
        help="latency JSON (default: bundled measurements)",
    )
    sub.add_argument(
        "--verify-out", type=int, default=None,
        help="verifier output tokens per generative verification",
    )
    _add_eval_options(sub)
    sub.add_argument("--format", choices=("json", "csv"), default="csv")
    sub.set_defaults(func=cmd_curve)

    sub = commands.add_parser("cost", help="FLOPs breakdown for a pipeline")
    _add_io(sub, input_required=False)
    sub.add_argument("--mode", choices=PIPELINE_MODES, default="sc")
    sub.add_argument("--solver-preset", choices=sorted(MODEL_PRESETS))
    sub.add_argument("--solver-config")
    sub.add_argument("--verifier-preset", choices=sorted(MODEL_PRESETS))
    sub.add_argument("--verifier-config")
    sub.add_argument("-M", "--m-verifications", type=int, default=0)
    sub.add_argument("--verify-out", type=int, default=None)
    sub.add_argument("--prompt-tokens", type=int, default=0)
    sub.add_argument("--output-tokens", type=int, default=None)
    sub.add_argument("--solution-tokens", type=int, default=0)
    sub.add_argument(
        "--count", type=int, default=1,
        help="replicate the flag-specified candidate this many times",
    )
    sub.set_defaults(func=cmd_cost)

    sub = commands.add_parser("btloss", help="ranking-loss diagnostics")
    _add_io(sub)
    sub.add_argument("--l2", type=float, default=0.0, help="regularizer weight")
    sub.add_argument(
        "--grad-check", action="store_true",
        help="audit the analytic gradient against finite differences",
    )
    sub.set_defaults(func=cmd_btloss)

    sub = commands.add_parser("simulate", help="write a synthetic dataset")
    sub.add_argument("-o", "--output", default=None)
    sub.add_argument("--n-problems", type=int, default=200)
    sub.add_argument("--pool-size", type=int, default=128)
    sub.add_argument("--p-correct", type=float, default=0.5)
    sub.add_argument("--answer-space", type=int, default=1)
    sub.add_argument("--correct-dist", type=_float_pair, default=(8.0, 2.0))
    sub.add_argument("--incorrect-dist", type=_float_pair, default=(2.0, 8.0))
    sub.add_argument("--gen-verifications", type=int, default=0)
    sub.add_argument("--prompt-tokens", type=int, default=64)
    sub.add_argument("--output-tokens", type=int, default=512)
    sub.add_argument("--solution-tokens", type=int, default=128)
    sub.add_argument(
        "--verify-out", dest="verification_out_tokens", metavar="VERIFY_OUT",
        type=int, default=None,
    )
    sub.set_defaults(func=cmd_simulate)

    sub = commands.add_parser("select", help="run one rule on one pool")
    _add_io(sub)
    sub.add_argument("--problem-id", default=None, help="default: first problem")
    sub.add_argument("--method", required=True, choices=METHODS)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("-M", "--m-verifications", type=int, default=None)
    sub.add_argument(
        "--random-ties", action="store_true",
        help="break exact ties with the seeded RNG instead of cluster order",
    )
    sub.set_defaults(func=cmd_select)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, format="%(levelname)s: %(message)s",
        level=logging.WARNING,
    )
    try:
        return args.func(args)
    except (VeriselError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
