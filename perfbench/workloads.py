"""The three workloads: their inputs, their steps, and their checks.

Each workload runs its steps two ways. ``commands`` gives the child
processes an untraced run starts and times, one round after another.
``replay`` makes the same calls inside the benchmark's own process, which
is what a traced run instruments. ``check`` compares a round's outputs with
reference.py; every later round must give the same bytes as the first.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import inputs
import reference

HERE = Path(__file__).resolve().parent
# Standard errors a sampled accuracy may sit from its closed form. A
# correct program fails one such check with chance ~6e-7.
Z_TOLERANCE = 5.0
# Geometries the curve is priced with (the built-in presets), as (d, m, L, V).
SOLVER = ("qwen2.5-32b", (5120, 27648, 64, 152064))
VERIFIER = ("qwen2.5-1.5b", (1536, 8960, 28, 151936))


def _sig6(x: float) -> float:
    return float(f"{x:.6g}")


def _se(probs: list[float], draws: int) -> float:
    return math.sqrt(sum(q * (1 - q) for q in probs) / draws) / len(probs)


class Workload:
    name = ""
    canon = "exact"

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.input = work / "input.jsonl"

    def prepare(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def output_files(self) -> list[Path]:
        raise NotImplementedError

    def replay(self, vs) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def records_per_round(self) -> int:
        raise NotImplementedError

    def draw_keys(self) -> list[tuple[str, int, int, int]]:
        """(problem_id, pool size, slate size, draws) the steps sample, for
        timing slate draws alone; none when the steps draw no slates."""
        return []

    def outputs(self) -> list[bytes]:
        """What a round produced, for comparing rounds byte for byte."""
        return [p.read_bytes() for p in self.output_files()]

    def round_wall(self, process_walls: float) -> float:
        """A round's time, given its processes' summed wall time."""
        return process_walls

    def _verisel(self, *argv: str) -> list[str]:
        return [sys.executable, "-m", "verisel", "--seed", str(self.seed), *argv]


class SlateEval(Workload):
    """Six `verisel evaluate` runs over criterion 9's 200 x 128 pool."""

    name = "slate-eval"
    DRAWS = 100
    RUNS = (("sc", 32), ("wsc", 32), ("pv", 32), ("bon", 8), ("bon", 32), ("bon", 128))
    # Problems whose wsc@32 and pv@32 accuracies are re-derived draw by draw.
    SAMPLE = 20

    def prepare(self) -> None:
        inputs.write_synth(self.input, self.seed, inputs.SLATE_SPEC)
        self.pools = inputs.read_pools(self.input)

    def _argv(self, method: str, n: int) -> list[str]:
        return [
            "--jobs", "1", "evaluate", "-i", str(self.input), "--method", method,
            "-n", str(n), "--draws", str(self.DRAWS),
            "-o", str(self.work / f"{method}{n}.json"),
        ]

    def commands(self) -> list[list[str]]:
        return [self._verisel(*self._argv(m, n)) for m, n in self.RUNS]

    def output_files(self) -> list[Path]:
        return [self.work / f"{m}{n}.json" for m, n in self.RUNS]

    def replay(self, vs) -> None:
        for method, n in self.RUNS:
            if vs.cli.main(["--seed", str(self.seed), *self._argv(method, n)]) != 0:
                raise RuntimeError(f"evaluate {method}@{n} failed")

    def records_per_round(self) -> int:
        return len(self.RUNS) * sum(len(p) for p in self.pools.values())

    def draw_keys(self):
        k = len(next(iter(self.pools.values())))
        pids = list(self.pools)[: self.SAMPLE]
        return [(pid, k, n, self.DRAWS) for _, n in self.RUNS for pid in pids]

    def check(self) -> list[str]:
        from verisel.evaluate import slate_rng

        errors = []
        reports = {
            (m, n): json.loads(p.read_text())
            for (m, n), p in zip(self.RUNS, self.output_files())
        }
        pids = list(self.pools)
        for (m, n), rep in reports.items():
            if (rep["method"], rep["n"], rep["draws"]) != (m, n, self.DRAWS):
                errors.append(f"{m}@{n}: report echoes {rep['method']}@{rep['n']}")
            if list(rep["per_problem"]) != pids:
                errors.append(f"{m}@{n}: per_problem ids differ from the input's")

        labels = {pid: [c["correct"] for c in pool] for pid, pool in self.pools.items()}
        scores = {pid: [c["disc"] for c in pool] for pid, pool in self.pools.items()}
        if any(set(c["key"] for c in pool) - {"c", "w0"} for pool in self.pools.values()):
            errors.append("input has answers other than c and w0")
        sc = [
            reference.sc_two_answer_accuracy(len(labels[p]), sum(labels[p]), 32)
            for p in pids
        ]
        try:
            bon = {
                n: [reference.bon_accuracy(scores[p], labels[p], n) for p in pids]
                for n in (8, 32, 128)
            }
        except ValueError as exc:
            return errors + [f"bon closed form: {exc}"]

        def near(label: str, got: float, probs: list[float]) -> None:
            exact = statistics.fmean(probs)
            bound = Z_TOLERANCE * _se(probs, self.DRAWS) + 1e-6
            if abs(got - exact) > bound:
                errors.append(f"{label} = {got}, closed form {exact:.6f} +- {bound:.6f}")

        near("sc@32", reports[("sc", 32)]["mean"], sc)
        near("bon@8", reports[("bon", 8)]["mean"], bon[8])
        near("bon@32", reports[("bon", 32)]["mean"], bon[32])
        exact128 = _sig6(statistics.fmean(bon[128]))
        if reports[("bon", 128)]["mean"] != exact128:
            errors.append(f"bon@128 = {reports[('bon', 128)]['mean']}, exact {exact128}")

        for method in ("wsc", "pv"):
            per_problem = reports[(method, 32)]["per_problem"]
            for pid in pids[: self.SAMPLE]:
                pool = self.pools[pid]
                hits = 0
                for t in range(self.DRAWS):
                    idx = slate_rng(self.seed, pid, t).choice(len(pool), size=32, replace=False)
                    slate = [pool[i] for i in idx]
                    won = reference.select(slate, method)
                    hits += next(c["correct"] for c in slate if c["key"] == won)
                if per_problem[pid] != _sig6(hits / self.DRAWS):
                    errors.append(
                        f"{method}@32 {pid}: {per_problem[pid]}, draw by draw "
                        f"{hits}/{self.DRAWS}"
                    )

        mean = {key: rep["mean"] for key, rep in reports.items()}
        for claim, ok in (
            ("wsc@32 > sc@32", mean[("wsc", 32)] > mean[("sc", 32)]),
            ("pv@32 > sc@32", mean[("pv", 32)] > mean[("sc", 32)]),
            ("bon@128 < bon@8", mean[("bon", 128)] < mean[("bon", 8)]),
        ):
            if not ok:
                errors.append(f"{claim} fails: {mean}")
        return errors


class BudgetCurve(Workload):
    """One `verisel curve --budget flops` run at --jobs 2, all five rules."""

    name = "budget-curve"
    JOBS = 2
    DRAWS = 10
    METHODS = ("sc", "bon", "wsc", "pv", "gpv")
    N_GRID = (1, 2, 4, 8, 16, 32)
    M_GRID = (1, 2, 4)
    HEADER = "method,N,M,budget,accuracy,ci_low,ci_high"
    MODE = {"sc": "sc", "bon": "disc", "wsc": "disc", "pv": "disc", "gpv": "gen"}

    def prepare(self) -> None:
        import verisel.cli

        argv = ["--seed", str(self.seed), "simulate", "-o", str(self.input),
                *inputs.CURVE_SIMULATE]
        if verisel.cli.main(argv) != 0:
            raise RuntimeError("simulate failed")
        self.pools = inputs.read_pools(self.input)

    def _argv(self, jobs: int) -> list[str]:
        join = lambda xs: ",".join(str(x) for x in xs)  # noqa: E731
        return [
            "--jobs", str(jobs), "curve", "-i", str(self.input),
            "--budget", "flops", "--methods", join(self.METHODS),
            "--n-grid", join(self.N_GRID), "--m-grid", join(self.M_GRID),
            "--draws", str(self.DRAWS), "--solver-preset", SOLVER[0],
            "--verifier-preset", VERIFIER[0], "-o", str(self.work / "curve.csv"),
        ]

    def commands(self) -> list[list[str]]:
        return [self._verisel(*self._argv(self.JOBS))]

    def output_files(self) -> list[Path]:
        return [self.work / "curve.csv"]

    def replay(self, vs) -> None:
        if vs.cli.main(["--seed", str(self.seed), *self._argv(self.JOBS)]) != 0:
            raise RuntimeError("curve failed")

    def records_per_round(self) -> int:
        return sum(len(p) for p in self.pools.values())

    def points(self) -> list[tuple[str, int, int]]:
        """(method, N, M) of every curve point, in the order printed."""
        return [
            (method, n, m)
            for method in self.METHODS
            for m in (self.M_GRID if method == "gpv" else (0,))
            for n in self.N_GRID
        ]

    def draw_keys(self):
        k = len(next(iter(self.pools.values())))
        pids = list(self.pools)[:20]
        return [(pid, k, n, self.DRAWS) for _, n, _ in self.points() for pid in pids]

    def budget(self, method: str, n: int, m: int) -> Fraction:
        """Closed-form FLOPs budget: N times the per-candidate mean cost,
        averaged over problems."""
        per_problem = []
        for pool in self.pools.values():
            total = 0
            for c in pool:
                prompt, output, solution, verify_out = c["tokens"]
                total += reference.candidate_flops(
                    SOLVER[1], VERIFIER[1], self.MODE[method], prompt or 0,
                    output or 0, solution or 0, verify_out or 0, m,
                )
            per_problem.append(Fraction(n * total, len(pool)))
        return sum(per_problem) / len(per_problem)

    def check(self) -> list[str]:
        errors = []
        lines = (self.work / "curve.csv").read_text().splitlines()
        if not lines or lines[0] != self.HEADER:
            return [f"curve header is {lines[:1]}"]
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        if len(rows) != 42:
            errors.append(f"curve has {len(rows)} data rows, expected 42")
        expected = self.points()
        for row, (method, n, m) in zip(rows, expected):
            if (row[0], int(row[1]), int(row[2])) != (method, n, m):
                errors.append(f"row {row[:3]} where {(method, n, m)} was due")
                continue
            want = f"{float(self.budget(method, n, m)):.6g}"
            if row[3] != want:
                errors.append(f"{method} N={n} M={m}: budget {row[3]}, closed form {want}")
        at_one = {row[4] for row in rows if row[1] == "1"}
        if len(at_one) != 1:
            errors.append(f"accuracy at N=1 differs between methods: {sorted(at_one)}")
        else:
            shares = [
                sum(c["correct"] for c in pool) / len(pool) for pool in self.pools.values()
            ]
            got = float(at_one.pop())
            bound = Z_TOLERANCE * _se(shares, self.DRAWS) + 1e-6
            if abs(got - statistics.fmean(shares)) > bound:
                errors.append(
                    f"accuracy at N=1 is {got}, share correct "
                    f"{statistics.fmean(shares):.6f} +- {bound:.6f}"
                )
        return errors


class DatasetPass(Workload):
    """The public API over a 1000 x 64 numeric-answer dataset, in one process."""

    name = "dataset-pass"
    canon = "numeric"

    def prepare(self) -> None:
        raw = self.work / "synth.jsonl"
        inputs.write_synth(raw, self.seed, inputs.DATASET_SPEC)
        self.pools = inputs.numeric_rewrite(raw, self.input, self.seed)
        raw.unlink()
        self.result = self.work / "result.json"
        self.written = self.work / "written.jsonl"

    def commands(self) -> list[list[str]]:
        return [[sys.executable, str(HERE / "dataset_pass.py"), str(self.input),
                 str(self.written), str(self.result)]]

    def output_files(self) -> list[Path]:
        return [self.written, self.result]

    def outputs(self) -> list[bytes]:
        doc = json.loads(self.result.read_text())
        doc.pop("timed_s", None)
        return [self.written.read_bytes(), json.dumps(doc).encode()]

    def round_wall(self, process_walls: float) -> float:
        """The steps' own time, measured inside the process."""
        return json.loads(self.result.read_text())["timed_s"]

    def replay(self, vs) -> None:
        import dataset_pass

        out = dataset_pass.run_steps(vs, str(self.input), str(self.written))
        self.result.write_text(json.dumps(out))

    def records_per_round(self) -> int:
        return sum(len(p) for p in self.pools.values())

    def check(self) -> list[str]:
        import dataset_pass
        import verisel

        errors = []
        doc = json.loads(self.result.read_text())
        if verisel.ingest(str(self.written), canon="numeric") != verisel.ingest(
            str(self.input), canon="numeric"
        ):
            errors.append("re-ingesting the written file gives different Problems")
        if doc["records"] != self.records_per_round():
            errors.append(f"ingested {doc['records']} records of {self.records_per_round()}")
        for method in dataset_pass.METHODS:
            got = doc["winners"][method]
            want = [reference.select(pool, method) for pool in self.pools.values()]
            bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
            if bad or len(got) != len(want):
                errors.append(
                    f"{method}: {len(bad)} of {len(want)} winners differ, first at "
                    f"pool {bad[:1]}"
                )
        want_clusters = [reference.clusters(pool) for pool in self.pools.values()]
        if doc["clusters"] != want_clusters:
            bad = sum(g != w for g, w in zip(doc["clusters"], want_clusters))
            errors.append(f"{bad} pools cluster their numeric answers differently")

        learnable = [
            pid for pid, pool in self.pools.items()
            if 0 < sum(c["correct"] for c in pool) < len(pool)
        ]
        bt = doc["bt"]
        if bt["problem_ids"] != learnable:
            errors.append("ranking loss covers other pools than the learnable ones")
        # Gradients are kept for the first few pools only; zip stops there.
        for pid, loss, grad in zip(learnable, bt["loss"], bt["gradient"]):
            pool = self.pools[pid]
            scores = [c["disc"] for c in pool]
            labels = [c["correct"] for c in pool]
            want_loss = reference.bt_loss(scores, labels, dataset_pass.L2)
            want_grad = reference.bt_loss_gradient(scores, labels, dataset_pass.L2)
            if not math.isclose(loss, want_loss, rel_tol=1e-9) or not all(
                math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-12)
                for g, w in zip(grad, want_grad)
            ):
                errors.append(f"ranking loss or gradient differs on {pid}")
        return errors
