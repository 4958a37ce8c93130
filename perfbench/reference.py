"""Reference computations the benchmark checks verisel's outputs against.

Nothing here calls verisel's selection rules, evaluator or cost model:
every number is worked out again from the README's definitions, in plain
Python, so agreement is evidence rather than a tautology.

A pool is a list of candidates, each a dict with the keys ``id`` (the
candidate_id), ``key`` (canonical answer; ``NONE_KEY`` when there is no
answer), ``correct`` (bool), ``disc`` (raw disc_score) and ``gen`` (list of
raw gen_scores, or None).
"""

from __future__ import annotations

import math
from collections import Counter

NONE_KEY = "<none>"
PV_ALPHA = 0.5
GPV_ALPHA = 0.1


# -- accuracy closed forms -------------------------------------------------


def sc_two_answer_accuracy(k: int, n_correct: int, n: int) -> float:
    """P(sc picks the correct answer) on a two-answer pool, slate size n.

    The pool holds n_correct candidates answering "c" and k - n_correct
    answering "w0"; a slate is n of them drawn without replacement. A tie
    goes to "c" because ties break by answer key ascending and "c" < "w0",
    so sc is right when the slate holds at least ceil(n/2) correct ones.
    """
    wrong = k - n_correct
    hits = sum(
        math.comb(n_correct, j) * math.comb(wrong, n - j)
        for j in range((n + 1) // 2, min(n, n_correct) + 1)
    )
    return hits / math.comb(k, n)


def bon_accuracy(scores: list[float], labels: list[bool], n: int) -> float:
    """Exact best-of-n accuracy over all size-n slates of one pool.

    Candidate i wins exactly when it is in the slate and the other n - 1
    members all rank below it: C(r_i, n - 1) of the C(k, n) slates, with
    r_i the number of candidates scored below i. Scores must be distinct.
    """
    k = len(scores)
    if len(set(scores)) != k:
        raise ValueError("bon closed form needs distinct scores")
    order = sorted(range(k), key=lambda i: scores[i])
    below = {i: rank for rank, i in enumerate(order)}
    wins = sum(math.comb(below[i], n - 1) for i in range(k) if labels[i])
    return wins / math.comb(k, n)


# -- FLOPs, README formulas, exact ints ------------------------------------


def _projections(cfg, tokens: int) -> int:
    d, m, layers = cfg
    return (8 * d * d + 4 * d * m) * tokens * layers


def generation_flops(cfg, vocab: int, t_in: int, t_out: int) -> int:
    """Prefill t_in tokens, then decode t_out tokens against a width-vocab head.

    Causal attention charges 4d per attended position per layer: prompt
    token j attends to positions 1..j, generated token j to the t_in + j - 1
    positions before it. Every generated token pays the 2 d vocab head.
    """
    d, _, layers = cfg
    prefill_positions = t_in * (t_in + 1) // 2
    decode_positions = t_in * t_out + t_out * (t_out - 1) // 2
    return (
        _projections(cfg, t_in + t_out)
        + 4 * d * layers * (prefill_positions + decode_positions)
        + 2 * d * vocab * t_out
    )


def candidate_flops(
    solver: tuple[int, int, int, int],
    verifier: tuple[int, int, int, int],
    mode: str,
    prompt: int,
    output: int,
    solution: int,
    verify_out: int = 0,
    m: int = 0,
) -> int:
    """FLOPs one candidate costs under pipeline mode sc, disc or gen.

    Models are (d, m, L, V). sc: solver generation only. disc: plus one
    verifier pass that reads the solution and emits one token through a
    single-logit head. gen: plus m verifier generations, each reading the
    solution and emitting verify_out tokens through the full head.
    """
    cost = generation_flops(solver[:3], solver[3], prompt, output)
    if mode == "disc":
        cost += generation_flops(verifier[:3], 1, solution, 1)
    elif mode == "gen":
        cost += m * generation_flops(verifier[:3], verifier[3], solution, verify_out)
    elif mode != "sc":
        raise ValueError(mode)
    return cost


# -- the five selection rules, README objectives ---------------------------


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _cluster_order(pool: list[dict]) -> tuple[list[str], Counter]:
    counts = Counter(c["key"] for c in pool)
    return sorted(counts, key=lambda a: (-counts[a], a)), counts


def _best(order: list[str], objective) -> str:
    """First key, in cluster order, whose objective no later key beats."""
    best, best_val = None, None
    for key in order:
        if key == NONE_KEY:
            continue
        val = objective(key)
        if best is None or val > best_val:
            best, best_val = key, val
    if best is None:
        raise ValueError("no selectable answer")
    return best


def _sums(pool: list[dict], weight) -> dict[str, float]:
    sums: dict[str, float] = {}
    for c in pool:
        sums[c["key"]] = sums.get(c["key"], 0.0) + weight(c)
    return sums


def select(pool: list[dict], method: str) -> str:
    """Winning answer key of one rule on one pool (deterministic ties).

    sc maximizes support; bon takes the highest raw disc_score (ties to the
    lowest candidate id); wsc the summed sigmoid score; pv the mean sigmoid
    score minus 0.5 ln(N) / (n_a + 1); gpv the mean over members of each
    member's mean sigmoid gen score, minus 0.1 ln(N M) / (n_a M + 1). N
    counts every candidate, the no-answer ones too. Ties go to the larger
    cluster, then to the smaller key; the no-answer cluster never wins.
    """
    order, counts = _cluster_order(pool)
    n_total = len(pool)
    if method == "sc":
        return _best(order, lambda a: counts[a])
    if method == "bon":
        live = [c for c in pool if c["key"] != NONE_KEY]
        if not live:
            raise ValueError("no selectable answer")
        return min(live, key=lambda c: (-c["disc"], c["id"]))["key"]
    if method == "wsc":
        sums = _sums(pool, lambda c: sigmoid(c["disc"]))
        return _best(order, lambda a: sums[a])
    if method == "pv":
        sums = _sums(pool, lambda c: sigmoid(c["disc"]))
        log_n = math.log(n_total)
        return _best(
            order,
            lambda a: sums[a] / counts[a] - PV_ALPHA * (log_n / (counts[a] + 1)),
        )
    if method == "gpv":
        m = len(pool[0]["gen"])
        sums = _sums(pool, lambda c: sum(sigmoid(g) for g in c["gen"]) / m)
        log_nm = math.log(n_total * m)
        return _best(
            order,
            lambda a: sums[a] / counts[a]
            - GPV_ALPHA * (log_nm / (counts[a] * m + 1)),
        )
    raise ValueError(f"unknown method {method!r}")


def clusters(pool: list[dict]) -> list[list]:
    """[key, size] per answer cluster, in cluster order."""
    order, counts = _cluster_order(pool)
    return [[key, counts[key]] for key in order]


# -- Bradley-Terry ranking loss --------------------------------------------


def bt_loss(scores: list[float], labels: list[bool], lam: float) -> float:
    """Mean over (correct, incorrect) pairs of -ln sigmoid(r_i - r_j),
    plus (lam / 2) times the mean squared score."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    pairs = sum(-math.log(sigmoid(p - q)) for p in pos for q in neg)
    return pairs / (len(pos) * len(neg)) + 0.5 * lam * (
        sum(s * s for s in scores) / len(scores)
    )


def bt_loss_gradient(scores: list[float], labels: list[bool], lam: float) -> list[float]:
    """Derivative of bt_loss with respect to each score."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    scale = 1.0 / (len(pos) * len(neg))
    grad = []
    for s, y in zip(scores, labels):
        if y:
            g = -scale * sum(sigmoid(q - s) for q in neg)
        else:
            g = scale * sum(sigmoid(s - p) for p in pos)
        grad.append(g + lam / len(scores) * s)
    return grad
