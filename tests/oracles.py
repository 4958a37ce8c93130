"""Independent straight-line oracles for the test suite.

Everything here is deliberately naive: dict loops, O(n^2) scans, per-token
summation. No code is shared with the package beyond its public data types,
so agreement between the two is evidence, not tautology.

Pool shape used throughout: a list of (candidate_id, answer_key, payload)
tuples, where payload is a float score or a list of per-verification
scores. The empty-answer sentinel "<none>" is never allowed to win.
"""

from __future__ import annotations

import math

NONE_KEY = "<none>"


def cluster_order(answers):
    """Deterministic cluster order: support descending, key ascending."""
    counts = {}
    for a in answers:
        counts[a] = counts.get(a, 0) + 1
    return sorted(counts, key=lambda a: (-counts[a], a))


def _argmax_in_order(keys_in_order, objective):
    """First strictly-maximal key in the given order; None if no key."""
    best_key = None
    best_val = None
    for key in keys_in_order:
        if key == NONE_KEY:
            continue
        val = objective(key)
        if best_val is None or val > best_val:
            best_key, best_val = key, val
    return best_key


def oracle_sc(pool):
    answers = [a for _, a, *_ in pool]
    counts = {}
    for a in answers:
        counts[a] = counts.get(a, 0) + 1
    return _argmax_in_order(cluster_order(answers), lambda a: counts[a])


def oracle_bon(pool):
    """Returns (candidate_id, answer_key) of the winner."""
    best = None
    for cid, answer, score in pool:
        if answer == NONE_KEY:
            continue
        if (
            best is None
            or score > best[2]
            or (score == best[2] and cid < best[0])
        ):
            best = (cid, answer, score)
    return None if best is None else (best[0], best[1])


def oracle_wsc(pool):
    answers = [a for _, a, _ in pool]
    sums = {}
    for _, a, s in pool:
        sums[a] = sums.get(a, 0.0) + s
    return _argmax_in_order(cluster_order(answers), lambda a: sums[a])


def oracle_pv(pool, alpha):
    answers = [a for _, a, _ in pool]
    n_total = len(pool)
    counts = {}
    sums = {}
    for _, a, s in pool:
        counts[a] = counts.get(a, 0) + 1
        sums[a] = sums.get(a, 0.0) + s

    def objective(a):
        mean = sums[a] / counts[a]
        return mean - alpha * (math.log(n_total) / (counts[a] + 1))

    return _argmax_in_order(cluster_order(answers), objective)


def oracle_gpv(pool, alpha, m):
    answers = [a for _, a, _ in pool]
    n_total = len(pool)
    counts = {}
    sums = {}
    for _, a, scores in pool:
        r_tilde = _in_order(scores[:m]) / m
        counts[a] = counts.get(a, 0) + 1
        sums[a] = sums.get(a, 0.0) + r_tilde

    def objective(a):
        mean = sums[a] / counts[a]
        return mean - alpha * (math.log(n_total * m) / (counts[a] * m + 1))

    return _argmax_in_order(cluster_order(answers), objective)


def _in_order(values):
    """Left-to-right float sum (Python 3.12's sum() compensates)."""
    total = 0.0
    for v in values:
        total += v
    return total


def oracle_diagnostics(pool, rule, alpha=None, m=None):
    """(key, n, sum, penalty, objective) per cluster, in cluster order, as
    a rule reports them on raw scores. Payloads are disc scores (None on an
    unscored pool, whose sums are then None) or, for gpv, pass-score lists.
    Sums add each cluster's scores (gpv: pass means) in pool order; bon's
    objective is a cluster's highest score, the others' what they maximize;
    the no-answer cluster has no penalty or objective."""
    answers = [a for _, a, _ in pool]
    counts, sums, best = {}, {}, {}
    for _, a, payload in pool:
        counts[a] = counts.get(a, 0) + 1
        if payload is None:
            continue
        score = _in_order(payload[:m]) / m if rule == "gpv" else payload
        sums[a] = sums.get(a, 0.0) + score
        if a not in best or score > best[a]:
            best[a] = score
    rows = []
    for a in cluster_order(answers):
        n, total = counts[a], sums.get(a)
        penalty = objective = None
        if a != NONE_KEY:
            if rule == "sc":
                objective = float(n)
            elif rule == "bon":
                objective = best[a]
            elif rule == "wsc":
                objective = total
            else:
                passes = m if rule == "gpv" else 1
                penalty = math.log(len(pool) * passes) / (n * passes + 1)
                objective = total / n - alpha * penalty
        rows.append((a, n, total, penalty, objective))
    return rows


def loop_generation_flops(d, m, L, V, t_in, t_out):
    """Per-token summation: prefill token k attends to k positions, decode
    token k to t_in + k - 1; every generated token pays the 2dV head."""
    per_token_proj = (8 * d * d + 4 * d * m) * L
    total = 0
    for k in range(1, t_in + 1):
        total += per_token_proj + 4 * d * L * k
    for k in range(1, t_out + 1):
        total += per_token_proj + 4 * d * L * (t_in + k - 1) + 2 * d * V
    return total


def loop_disc_verification_flops(d, m, L, t_in):
    """Read t_in tokens, then emit a single token against a width-1 head."""
    return loop_generation_flops(d, m, L, 1, t_in, 1)


def enumeration_pass_at_n(labels, n):
    """Exhaustive slate enumeration of P(slate has a correct member)."""
    from itertools import combinations

    slates = list(combinations(labels, n))
    hits = sum(1 for slate in slates if any(slate))
    return hits / len(slates)
