"""Pairwise ranking objective for verifier training, at desk scale.

The loss asks every correct response in a batch to outrank every incorrect
one: for positives P and negatives N over logits r,

    L = -(1/(|P||N|)) sum_{i in P} sum_{j in N} log sigmoid(r_i - r_j)
        + (lambda/2) * mean(r^2)

The regularizer's expectation is read as the mean of squared logits over the
full batch, the only expectation available inside one batch. No training
happens here; the module exists so the objective and its gradient can be
checked against finite differences and reused by analysis tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .core import Problem


@dataclass(frozen=True)
class ScoredGroup:
    """A batch of labeled verifier logits for one problem."""

    scores: tuple[float, ...]
    labels: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.scores, tuple):
            object.__setattr__(self, "scores", tuple(float(s) for s in self.scores))
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(bool(b) for b in self.labels))
        if len(self.scores) != len(self.labels) or not self.scores:
            raise ValueError(
                f"scores ({len(self.scores)}) and labels ({len(self.labels)}) "
                "must be equal-length and non-empty"
            )

    @property
    def learnable(self) -> bool:
        """True when the group mixes correct and incorrect members."""
        return any(self.labels) and not all(self.labels)


def group_from_problem(problem: Problem) -> ScoredGroup:
    """Build a ScoredGroup from a labeled, scored pool's columns."""
    if not problem.labeled:
        raise ValueError("labels required")
    if problem.disc is None:
        raise ValueError("scores required")
    return ScoredGroup(scores=tuple(problem.disc.tolist()), labels=problem.labels)


def filter_learnable_groups(
    groups: Iterable[Union[ScoredGroup, Problem]],
) -> list[ScoredGroup]:
    """Keep only groups carrying signal: at least one correct and one not.

    All-correct and all-incorrect groups contribute no ranking pairs and are
    dropped. Problems are converted on the fly.
    """
    out = []
    for g in groups:
        if isinstance(g, Problem):
            g = group_from_problem(g)
        if g.learnable:
            out.append(g)
    return out


def _split(group: ScoredGroup, lam: float = 0.0) -> tuple[np.ndarray, ...]:
    """Logits, labels (a bool mask), positive and negative logits. The one
    check of the regularizer weight lam: a finite number >= 0."""
    if not 0 <= lam < np.inf:
        raise ValueError(f"invalid lambda: {lam}")
    scores = np.asarray(group.scores, dtype=float)
    labels = np.asarray(group.labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("no learnable signal")
    return scores, labels, pos, neg


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    # -softplus(-x); logaddexp keeps the large-|x| branches exact.
    return -np.logaddexp(0.0, -x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def bt_loss(group: ScoredGroup, lam: float = 0.0) -> float:
    """Mean pairwise ranking loss plus (lam/2) * mean squared logit."""
    scores, _, pos, neg = _split(group, lam)
    pairwise = -_log_sigmoid(pos[:, None] - neg[None, :]).mean()
    return float(pairwise + 0.5 * lam * np.mean(scores**2))


def bt_loss_gradient(group: ScoredGroup, lam: float = 0.0) -> np.ndarray:
    """Analytic gradient of bt_loss with respect to each logit.

    d/dr_i = -(1/(|P||N|)) sum_j sigmoid(r_j - r_i) + (lam/m) r_i  (i in P)
    and the pairwise term flips sign for j in N.
    """
    scores, labels, pos, neg = _split(group, lam)
    scale = 1.0 / (pos.size * neg.size)
    # sigma(r_j - r_i) over all (i in P, j in N) pairs
    s = _sigmoid(neg[None, :] - pos[:, None])

    grad = np.empty_like(scores)
    grad[labels] = -scale * s.sum(axis=1)
    grad[~labels] = scale * s.sum(axis=0)
    return grad + (lam / scores.size) * scores


def score_margin(group: ScoredGroup) -> float:
    """Mean correct score minus mean incorrect score."""
    _, _, pos, neg = _split(group)
    return float(pos.mean() - neg.mean())


def audit_gradient(seed: int) -> tuple[int, float]:
    """Audit bt_loss_gradient against central finite differences.

    Draws 1000 seeded groups of 2 to 16 logits in [-4, 4], each with both
    labels and lambda in {0, 0.01, 1}, and compares every partial derivative
    with (L(r + h) - L(r - h)) / 2h at h = 1e-5. Returns the number of
    partials checked and the worst relative error.
    """
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    checks = 0
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
            worst = max(worst, float(abs(grad[k] - fd) / max(abs(fd), 1e-8)))
            checks += 1
    return checks, worst
