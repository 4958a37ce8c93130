#!/usr/bin/env python3
"""verisel benchmark: three workloads, timed end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload slate-eval --seed 1 --seconds 30 --trace 0

Workloads: slate-eval, budget-curve, dataset-pass (see README.md here).
With --trace 0 the run times whole rounds of the workload's steps, each
one in fresh child processes, for about --seconds, and reports the
end-to-end metrics. With --trace 1 it replays the steps once untraced and
once traced inside this process, probes the layers the steps do not
reach, writes the spans as JSON lines under .perfbench_out/, and reports
the per-layer metrics. Either way the outputs are checked against
reference.py, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = {
    w.name: w for w in (workloads.SlateEval, workloads.BudgetCurve, workloads.DatasetPass)
}
# No round starts once DEADLINE_S have passed, and a child still running at
# KILL_AT_S is killed, so that a run ends inside the 180 s it is allowed.
DEADLINE_S = 150.0
KILL_AT_S = 170.0
# Fresh processes timed for setup_s, whose median is reported: at least
# this many, and more until they add up to SETUP_MIN_S, since a set-up of a
# fraction of a second varies more from process to process.
SETUP_SAMPLES = 3
SETUP_MIN_S = 4.0
SETUP_SNIPPET = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import verisel\n"
    "verisel.ingest(sys.argv[1], canon=sys.argv[2])\n"
    "print(time.perf_counter() - t)\n"
)


class ChildFailed(Exception):
    pass


def run_child(argv: list[str], env: dict, log: Path, timeout: float) -> tuple[float, int, int]:
    """Run one child to its end, through launch.py: (wall seconds, peak RSS
    in KiB, exit code)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), str(timeout), str(log), "--", *argv],
        env=env, capture_output=True, text=True, timeout=timeout + 30,
    )
    if done.returncode != 0:
        raise ChildFailed(f"launch.py failed: {done.stderr.strip()[-400:]}")
    report = json.loads(done.stdout)
    return report["wall_s"], report["maxrss_kib"], report["code"]


def setup_samples(wl, env: dict) -> list[float]:
    """Seconds of `import verisel` plus ingest, each in a fresh process."""
    samples: list[float] = []
    while len(samples) < SETUP_SAMPLES or sum(samples) < SETUP_MIN_S:
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(wl.input), wl.canon],
            env=env, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise ChildFailed(f"setup process failed: {done.stderr.strip()[-400:]}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def untraced(wl, seconds: float, env: dict) -> dict:
    t_start = time.perf_counter()
    wl.prepare()
    setups = setup_samples(wl, env)

    walls, peak_kib, attempted, failed, errors = [], 0, 0, 0, []
    first_outputs = None
    measured = 0.0  # seconds spent in the workload's processes
    # Rounds last up to 15 s, so the run takes the number of whole rounds
    # whose time comes closest to --seconds: one more round starts while
    # the time measured is short of it by more than half a round.
    while not walls or measured * (1 + 0.5 / len(walls)) < seconds:
        if walls and time.perf_counter() - t_start + max(walls) > DEADLINE_S:
            break
        first = not walls
        wall = 0.0
        # Each round writes fresh files rather than truncating last round's.
        for path in wl.output_files():
            path.unlink(missing_ok=True)
        for i, argv in enumerate(wl.commands()):
            attempted += 1
            log = wl.work / f"child{i}.log"
            remaining = max(1.0, KILL_AT_S - (time.perf_counter() - t_start))
            dt, kib, code = run_child(argv, env, log, remaining)
            wall += dt
            measured += dt
            peak_kib = max(peak_kib, kib)
            if code != 0:
                failed += 1
                errors.append(f"{argv[2:6]} exited {code}: {log.read_text()[-400:]}")
        if failed:
            break
        walls.append(wl.round_wall(wall))
        outputs = wl.outputs()
        if first:
            first_outputs = outputs
            errors += wl.check()
        elif outputs != first_outputs:
            errors.append(f"round {len(walls)} output differs from round 1's")

    if not walls:
        raise ChildFailed("; ".join(errors))
    # The host's speed wanders by a fifth over seconds to minutes, in
    # phases that span several rounds; the mean over the run's rounds
    # (its total time over its rounds) uses every round, and varied less
    # from run to run than the median did.
    wall_s = statistics.fmean(walls)
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "round_walls_s": walls,
        "setup_samples_s": setups,
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall_s, "s"),
            "records_per_s": (wl.records_per_round() / wall_s, "records/s"),
            "peak_rss_mb": (peak_kib / 1024, "MB"),
        },
    }


def declared_metrics(trace: bool) -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "verisel" / "__init__.py").is_file():
        print(f"error: no verisel sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{'trace' if args.trace else 'run'}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    wl = WORKLOADS[args.workload](work, args.seed)
    try:
        if args.trace:
            import traced

            result = traced.run(wl, env, OUT / f"trace-{tag}")
        else:
            result = untraced(wl, args.seconds, env)
    except (ChildFailed, subprocess.SubprocessError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = declared_metrics(bool(args.trace))
    if sorted(names) != sorted(result["metrics"]):
        print(f"error: metrics {sorted(result['metrics'])} differ from "
              f"BENCHMARK.json's {sorted(names)}", file=sys.stderr)
        return 1
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
