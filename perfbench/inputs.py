"""Seeded inputs for the three workloads and for the layer probe.

The program only ever receives the files written here. Everything is a
function of the seed: the same seed gives the same bytes.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from reference import NONE_KEY

# slate-eval: criterion 9's data, 200 x 128, two answers ("c", "w0").
SLATE_SPEC = dict(n_problems=200, pool_size=128, p_correct=0.5, wrong_tail=0.02)
# budget-curve: the arguments of its `verisel simulate` command.
CURVE_SIMULATE = [
    "--n-problems", "100", "--pool-size", "64", "--gen-verifications", "4",
    "--verify-out", "256", "--answer-space", "4",
]
# dataset-pass: numeric answers over eight wrong alternatives, M = 8. A
# small correct cluster and a weak verifier make the five rules disagree
# (sc, wsc, pv, bon and gpv are right on about 44%, 51%, 66%, 61% and
# 100% of pools), so checking every winner tests each objective.
DATASET_SPEC = dict(
    n_problems=1000, pool_size=64, p_correct=0.15, answer_space=8,
    correct_dist=(3.0, 2.0), incorrect_dist=(2.0, 3.0), gen_verifications=8,
)
# The layer probe's pool: dataset-pass's make-up at 20 x 64, with M = 4
# and a verification length so every pipeline mode can be costed.
PROBE_SPEC = dict(
    DATASET_SPEC, n_problems=20, answer_space=4, gen_verifications=4,
    verification_out_tokens=256,
)
TOKEN_FIELDS = (
    "prompt_tokens", "output_tokens", "solution_tokens", "verification_out_tokens",
)
# Share of incorrect candidates whose answer is blanked in numeric pools.
BLANK_SHARE = 0.1


def write_synth(path: Path, seed: int, spec: dict) -> None:
    """A SynthSpec pool written with write_records."""
    import verisel

    problems = verisel.generate_pool(verisel.SynthSpec(seed=seed, **spec))
    with open(path, "w", encoding="utf-8") as fh:
        verisel.write_records(problems, fh)


def _forms(value: Fraction) -> tuple[list[str], str]:
    """Equal spellings of one number, and the key numeric mode must give."""
    if value.denominator == 1:
        n = value.numerator
        return [f"{n}", f"{n}.0", f"{2 * n}/2", f"{3 * n}/3", f" {n} "], f"{n}"
    p, q = value.numerator, value.denominator
    return [f"{p}/{q}", f"{p / q}", f"{2 * p}/{2 * q}", f"{5 * p}/{5 * q} "], f"{p}/{q}"


def numeric_rewrite(src: Path, dst: Path, seed: int) -> dict[str, list[dict]]:
    """Rewrite a synth file's answers as numbers spelled several ways.

    Per problem, "c" and each "w<j>" become distinct numbers (integers and
    halves). Each candidate spells its number in one of several equal forms
    (3, 3.0, 6/2, ...). A BLANK_SHARE of the incorrect candidates lose
    their answer: the no-answer cluster then holds incorrect candidates
    only, as ingest requires. Returns the pools as reference.py expects
    them, keyed by problem_id, with the key each candidate must
    canonicalize to.
    """
    pools: dict[str, list[dict]] = {}
    values: dict[str, dict[str, Fraction]] = {}
    out = []
    with open(src, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            pid = rec["problem_id"]
            rng = random.Random(f"{seed}:{pid}:{rec['candidate_id']}")
            if pid not in values:
                prng = random.Random(f"{seed}:{pid}")
                base = prng.randrange(1, 60)
                labels = ["c"] + [f"w{j}" for j in range(16)]
                prng.shuffle(labels)
                values[pid] = {
                    label: Fraction(2 * (base + i) + i % 2, 2)
                    for i, label in enumerate(labels)
                }
            if not rec["correct"] and rng.random() < BLANK_SHARE:
                del rec["answer"]
                key = NONE_KEY
            else:
                spellings, key = _forms(values[pid][rec["answer"]])
                rec["answer"] = rng.choice(spellings)
            pools.setdefault(pid, []).append({
                "id": rec["candidate_id"], "key": key, "correct": rec["correct"],
                "disc": rec["disc_score"], "gen": rec.get("gen_scores"),
            })
            out.append(json.dumps(rec))
    dst.write_text("\n".join(out) + "\n", encoding="utf-8")
    return pools


def read_pools(path: Path) -> dict[str, list[dict]]:
    """A record file as reference.py pools, keyed by problem_id, in order.

    Keys are the raw answers: only for files whose answers are already
    canonical (the synth and simulate outputs).
    """
    pools: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            pools.setdefault(rec["problem_id"], []).append({
                "id": rec["candidate_id"], "key": rec.get("answer") or NONE_KEY,
                "correct": rec["correct"], "disc": rec["disc_score"],
                "gen": rec.get("gen_scores"),
                "tokens": tuple(rec.get(f) for f in TOKEN_FIELDS),
            })
    return pools
