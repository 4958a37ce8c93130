"""Brute-force checks of reference.py on tiny pools.

    python3 perfbench/test_reference.py     (or: pytest perfbench)

Every closed form is compared with plain enumeration of every slate, the
FLOPs formula with a per-token loop, the rules with a sort over each
answer's (objective, support, key), and the ranking gradient with finite
differences. None of it imports verisel.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import reference  # noqa: E402
from reference import NONE_KEY  # noqa: E402


def _pool(rng: random.Random, k: int, answers: list[str], gen_m: int = 0) -> list[dict]:
    pool = []
    truth = answers[0]
    for i in range(k):
        key = rng.choice(answers)
        pool.append({
            "id": f"s{i:02d}", "key": key, "correct": key == truth,
            "disc": rng.random(),
            "gen": [rng.random() for _ in range(gen_m)] if gen_m else None,
        })
    return pool


def _enumerate(pool: list[dict], n: int, method: str) -> float:
    """Share of all size-n slates on which the rule picks a correct answer."""
    hits = total = 0
    for slate in itertools.combinations(pool, n):
        total += 1
        live = [c for c in slate if c["key"] != NONE_KEY]
        if live:
            won = reference.select(list(slate), method)
            hits += next(c["correct"] for c in slate if c["key"] == won)
    return hits / total


def test_sc_closed_form_matches_enumeration():
    rng = random.Random(1)
    for _ in range(40):
        k = rng.randint(1, 10)
        pool = _pool(rng, k, ["c", "w0"])
        n_correct = sum(c["correct"] for c in pool)
        for n in range(1, k + 1):
            got = reference.sc_two_answer_accuracy(k, n_correct, n)
            assert math.isclose(got, _enumerate(pool, n, "sc"), abs_tol=1e-12)


def test_bon_closed_form_matches_enumeration():
    rng = random.Random(2)
    for _ in range(40):
        k = rng.randint(1, 10)
        pool = _pool(rng, k, ["c", "w0", "w1"])
        scores = [c["disc"] for c in pool]
        labels = [c["correct"] for c in pool]
        for n in range(1, k + 1):
            got = reference.bon_accuracy(scores, labels, n)
            assert math.isclose(got, _enumerate(pool, n, "bon"), abs_tol=1e-12)


def test_bon_closed_form_rejects_tied_scores():
    try:
        reference.bon_accuracy([0.5, 0.5], [True, False], 1)
    except ValueError:
        return
    raise AssertionError("tied scores accepted")


def _loop_generation(d, m, layers, vocab, t_in, t_out):
    per_token = (8 * d * d + 4 * d * m) * layers
    total = 0
    for j in range(1, t_in + 1):
        total += per_token + 4 * d * layers * j
    for j in range(1, t_out + 1):
        total += per_token + 4 * d * layers * (t_in + j - 1) + 2 * d * vocab
    return total


def test_flops_match_per_token_loop():
    solver, verifier = (3, 5, 2, 7), (2, 3, 1, 11)
    for prompt, output, solution, verify_out, m in itertools.product(
        range(4), range(4), range(3), range(3), range(3)
    ):
        gen = _loop_generation(*solver, prompt, output)
        disc = gen + _loop_generation(*verifier[:3], 1, solution, 1)
        genv = gen + m * _loop_generation(*verifier, solution, verify_out)
        args = (prompt, output, solution, verify_out, m)
        assert reference.candidate_flops(solver, verifier, "sc", *args) == gen
        assert reference.candidate_flops(solver, verifier, "disc", *args) == disc
        assert reference.candidate_flops(solver, verifier, "gen", *args) == genv


def _by_sorting(pool: list[dict], method: str) -> str:
    """The rules restated as one sort of every answer's full ranking key."""
    keys = sorted({c["key"] for c in pool} - {NONE_KEY})
    members = {a: [c for c in pool if c["key"] == a] for a in keys}
    n_total = len(pool)
    sig = reference.sigmoid

    def objective(a):
        cs = members[a]
        if method == "sc":
            return len(cs)
        if method == "bon":
            return max(c["disc"] for c in cs)
        if method == "wsc":
            return sum(sig(c["disc"]) for c in cs)
        if method == "pv":
            mean = sum(sig(c["disc"]) for c in cs) / len(cs)
            return mean - 0.5 * math.log(n_total) / (len(cs) + 1)
        m = len(cs[0]["gen"])
        mean = sum(sum(sig(g) for g in c["gen"]) / m for c in cs) / len(cs)
        return mean - 0.1 * math.log(n_total * m) / (len(cs) * m + 1)

    if method == "bon":
        # The one answered candidate that beats every other: a higher score,
        # or an equal score and a smaller id.
        live = [c for c in pool if c["key"] != NONE_KEY]
        (winner,) = [
            c for c in live
            if all(c is o or (c["disc"], o["id"]) > (o["disc"], c["id"]) for o in live)
        ]
        return winner["key"]
    ranked = sorted(keys, key=lambda a: (-objective(a), -len(members[a]), a))
    return ranked[0]


def test_rules_match_sorting_on_random_pools():
    rng = random.Random(3)
    answers = ["3", "12", "7/2", "w", NONE_KEY]
    for _ in range(400):
        pool = _pool(rng, rng.randint(1, 9), answers, gen_m=rng.randint(1, 3))
        if all(c["key"] == NONE_KEY for c in pool):
            continue
        for method in ("sc", "bon", "wsc", "pv", "gpv"):
            assert reference.select(pool, method) == _by_sorting(pool, method), method


def test_ties_go_to_support_then_smaller_key():
    pool = [
        {"id": "a", "key": "12", "correct": False, "disc": 0.5, "gen": [0.5]},
        {"id": "b", "key": "3", "correct": True, "disc": 0.5, "gen": [0.5]},
    ]
    # "12" < "3" as strings: equal support and objective, smaller key wins.
    for method in ("sc", "wsc", "pv", "gpv"):
        assert reference.select(pool, method) == "12"
    assert reference.select(pool, "bon") == "12"  # lowest candidate id


def test_bt_gradient_matches_finite_differences():
    rng = random.Random(4)
    for _ in range(50):
        size = rng.randint(2, 8)
        labels = [True] + [False] + [rng.random() < 0.5 for _ in range(size - 2)]
        scores = [rng.uniform(-3, 3) for _ in range(size)]
        lam = rng.choice([0.0, 0.01, 1.0])
        grad = reference.bt_loss_gradient(scores, labels, lam)
        for i in range(size):
            h = 1e-6
            up = scores[:i] + [scores[i] + h] + scores[i + 1:]
            down = scores[:i] + [scores[i] - h] + scores[i + 1:]
            fd = (reference.bt_loss(up, labels, lam) - reference.bt_loss(down, labels, lam)) / (2 * h)
            assert math.isclose(grad[i], fd, rel_tol=1e-5, abs_tol=1e-8)


def test_numeric_spellings_are_equal_and_keyed_canonically():
    for value in (Fraction(3), Fraction(40), Fraction(7, 2), Fraction(61, 2)):
        spellings, key = inputs._forms(value)
        assert len(set(spellings)) == len(spellings) > 2
        for s in spellings:
            assert Fraction(s.strip()) == value
        assert Fraction(key) == value
        assert key == (str(value.numerator) if value.denominator == 1
                       else f"{value.numerator}/{value.denominator}")


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
