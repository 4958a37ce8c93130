"""The dataset-pass workload: one pass of the public API over a dataset.

Run as a child process by run.py:

    python3 perfbench/dataset_pass.py INPUT OUTPUT RESULT

It times ingest, selection with all five rules on every pool, ranking loss
and gradient on every learnable pool, and write_records, then writes what
the steps returned, and the time they took, to RESULT (JSON) for run.py to
check.
"""

from __future__ import annotations

import json
import sys
import time

METHODS = ("sc", "bon", "wsc", "pv", "gpv")
L2 = 0.01
# Gradients kept in the result for the reference check, per run.
GRADIENTS_KEPT = 10


def run_steps(vs, input_path: str, output_path: str) -> dict:
    """The workload's steps. Functions are looked up on the package `vs` at
    call time, so a traced run sees every call."""
    problems = vs.ingest(input_path, canon="numeric")
    winners = {m: [] for m in METHODS}
    clusters = []
    for problem in problems:
        for method in METHODS:
            result = vs.select_answer(problem, method)
            winners[method].append(result.chosen_answer)
            if method == "sc":
                clusters.append(
                    [[d.answer_key, d.n_a] for d in result.cluster_diagnostics]
                )
    bt = {"problem_ids": [], "loss": [], "gradient": []}
    for problem in problems:
        group = vs.group_from_problem(problem)
        if not group.learnable:
            continue
        bt["problem_ids"].append(problem.problem_id)
        bt["loss"].append(vs.bt_loss(group, L2))
        gradient = vs.bt_loss_gradient(group, L2)
        if len(bt["gradient"]) < GRADIENTS_KEPT:
            bt["gradient"].append([float(g) for g in gradient])
    with open(output_path, "w", encoding="utf-8") as fh:
        vs.write_records(problems, fh)
    return {
        "records": sum(len(p.candidates) for p in problems),
        "winners": winners,
        "clusters": clusters,
        "bt": bt,
    }


def main(argv: list[str]) -> int:
    input_path, output_path, result_path = argv[:3]
    import verisel

    start = time.perf_counter()
    out = run_steps(verisel, input_path, output_path)
    elapsed = time.perf_counter() - start

    out["timed_s"] = elapsed
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
