"""Bulk slate draws against the draw contract, and the batch scorer at its
edges: Lemire rejections, infinite cluster totals, out-of-range seeds."""

import hashlib
import itertools
import warnings

import numpy as np
import pytest

from verisel import (
    Candidate,
    EvalConfig,
    Problem,
    bootstrap_accuracy,
    select_answer,
    slate_rng,
)
import verisel.cli as cli
import verisel.evaluate as evaluate_module
from verisel.evaluate import (
    _draw_slates,
    _eval_problems,
    _pid_hash,
    _slate_key,
    _stream_words,
)

SEEDS = (0, 42, 2**53 + 1, 2**63 - 1)
# pool size -> slate sizes drawn from it
SHAPES = {
    1: (1,),
    2: (1, 2),
    8: tuple(range(1, 9)),
    128: (1, 2, 5, 31, 32, 33, 64, 100, 127, 128),
    300: (1, 7, 64, 150, 299, 300),
    10_000: (1, 40, 700, 10_000),
}


def problem_ids() -> list[str]:
    """Two ids whose hash is below 2**63 and two at or above it; numpy keys
    the second kind through a float64 array."""
    low = [p for p in (f"p{i}" for i in range(100)) if _pid_hash(p) < 2**63]
    high = [p for p in (f"p{i}" for i in range(100)) if _pid_hash(p) >= 2**63]
    return low[:2] + high[:2]


def draws_for(n: int) -> int:
    return max(3, min(250, 25_000 // n))


class TestNumpyDrawContract:
    """If this fails after a numpy upgrade, numpy's Generator.choice no
    longer draws as Floyd's algorithm plus a Fisher-Yates shuffle over
    Lemire's 32-bit method on Philox words, low half first. The bulk
    draws in evaluate.py replicate that algorithm, so they must be made to
    follow it again (or the evaluator sent back to slate_rng)."""

    def test_bulk_draws_equal_choice(self):
        pids = problem_ids()
        assert _pid_hash("prob-17") == 0xC2410A19B6CE5CC0
        assert int(_slate_key(0, "prob-17")[1]) == 0xC2410A19B6CE6000
        slates = redone = 0
        for (k, sizes), seed, pid in itertools.product(SHAPES.items(), SEEDS, pids):
            key = _slate_key(seed, pid)
            for n in sizes:
                draws = np.arange(draws_for(n))
                keys = np.repeat(key[None, :], len(draws), axis=0)
                got, redo = _draw_slates(keys, draws, k, n)
                unordered, _ = _draw_slates(keys, draws, k, n, ordered=False)
                for t in draws:
                    want = slate_rng(seed, pid, int(t)).choice(k, size=n, replace=False)
                    slates += 1
                    if redo[t]:
                        redone += 1
                        continue
                    assert got[t].tolist() == want.tolist(), (
                        f"numpy {np.__version__}: bulk draw differs from "
                        f"choice at k={k} n={n} seed={seed} id={pid} draw={t}"
                    )
                    assert sorted(unordered[t]) == sorted(want)
        assert slates >= 100_000
        assert redone <= slates // 1000

    def test_key_is_philox_key(self):
        """_slate_key forms the key Philox(key=[seed, h]) stores, without a
        generator: dtype, shape, value and warnings, also for seeds past
        EvalConfig's range, where numpy's coercion warns."""
        warned = 0
        for seed, pid in itertools.product(SEEDS + (2**63, 2**64 - 1),
                                           problem_ids()):
            with warnings.catch_warnings(record=True) as ours:
                warnings.simplefilter("always")
                got = _slate_key(seed, pid)
            with warnings.catch_warnings(record=True) as numpys:
                warnings.simplefilter("always")
                want = np.random.Philox(key=[seed, _pid_hash(pid)]).state["state"]["key"]
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tolist() == want.tolist(), (seed, pid)
            assert ([str(w.message) for w in ours]
                    == [str(w.message) for w in numpys])
            warned += bool(ours)
        assert warned  # 2**64 - 1 with a low hash rounds to 2**64

    @pytest.mark.parametrize("pid", ["prob-17", "q", "problème-ü→7", "日本" * 40,
                                     "x" * 100_000])
    def test_pid_hash_is_sha256(self, pid):
        digest = hashlib.sha256(pid.encode("utf-8")).digest()
        assert _pid_hash(pid) == int.from_bytes(digest[:8], "big")

    def test_stream_words_equal_random_raw(self):
        for seed, pid in itertools.product(SEEDS, problem_ids()):
            key = _slate_key(seed, pid)
            words = _stream_words(np.repeat(key[None, :], 3, 0), np.arange(5, 8), 37)
            for row, t in enumerate(range(5, 8)):
                raw = np.random.Philox(
                    counter=[0, 0, 0, t], key=[seed, _pid_hash(pid)]
                ).random_raw(19)
                halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
                assert words[:, row].tolist() == halves[:37].tolist()


class TestRejection:
    """Seed 42, problem "q39", draw 46: the stream's 32-bit word at index 58
    is 0, so Lemire's method rejects it at both (128, 32), where it is a
    shuffle draw, and (128, 128), where it is a Floyd draw."""

    def pool(self):
        return Problem(problem_id="q39", candidates=tuple(
            Candidate(candidate_id=f"c{i:03d}", answer_raw=str(i % 3),
                      answer_key=str(i % 3), correct=i % 3 == 0,
                      disc_score=float(i))
            for i in range(128)
        ))

    @pytest.mark.parametrize("n", [32, 128])
    def test_pinned_row_is_drawn_again(self, n, monkeypatch):
        key = _slate_key(42, "q39")
        assert _stream_words(key[None, :], np.array([46]), 59)[58, 0] == 0
        want = slate_rng(42, "q39", 46).choice(128, size=n, replace=False)
        naive, redo = _draw_slates(key[None, :], np.array([46]), 128, n)
        assert redo.tolist() == [True]
        assert naive[0].tolist() != want.tolist()

        scored = []
        score = evaluate_module._PoolStack.score

        def keep(stack, pool, slates):
            scored.append(np.array(slates))
            return score(stack, pool, slates)

        monkeypatch.setattr(evaluate_module._PoolStack, "score", keep)
        cfg = EvalConfig(n=n, method="wsc", draws=50, seed=42)
        pool = self.pool()
        rows = _eval_problems([pool], cfg, False)[0]
        (slates,) = scored
        assert slates[46].tolist() == want.tolist()
        for t in range(50):
            idx = slate_rng(42, "q39", t).choice(128, size=n, replace=False)
            assert slates[t].tolist() == idx.tolist()
            sub = Problem(problem_id="q39",
                          candidates=tuple(pool.candidates[i] for i in idx))
            chosen = select_answer(sub, "wsc").chosen_answer
            assert rows[t] == float(chosen == "0")


class TestInfiniteTotals:
    """Raw scores near the largest double: cluster totals reach +inf and
    -inf. Each slate's pick must still be select_answer's."""

    def problem(self, rng, pid):
        cands = []
        for i in range(int(rng.integers(4, 9))):
            answer = "abc"[int(rng.integers(3))]
            sign = 1.0 if answer != "c" else -1.0
            score = sign * float(rng.uniform(0.6, 1.0)) * 1.7e308
            cands.append(Candidate(
                candidate_id=f"c{i}", answer_raw=answer, answer_key=answer,
                correct=answer == "a", disc_score=score, gen_scores=(score,),
            ))
        return Problem(problem_id=pid, candidates=tuple(cands))

    def pick(self, problem, idx, method):
        sub = Problem(problem_id=problem.problem_id,
                      candidates=tuple(problem.candidates[i] for i in idx))
        chosen = select_answer(sub, method, transform="raw").chosen_answer
        return float(chosen == "a")

    @pytest.mark.parametrize("method", ["wsc", "pv", "gpv"])
    def test_slates_match_selection(self, method):
        rng = np.random.default_rng(808)
        infinite = 0
        for trial in range(30):
            problem = self.problem(rng, f"inf-{trial}")
            k = len(problem.candidates)
            n = int(rng.integers(2, k + 1))
            cfg = EvalConfig(n=n, method=method, draws=40, seed=trial,
                             transform="raw")
            rows = _eval_problems([problem], cfg, False)[0]
            for t in range(cfg.draws):
                idx = slate_rng(trial, problem.problem_id, t).choice(
                    k, size=n, replace=False)
                assert rows[t] == self.pick(problem, idx, method)
            slates = list(itertools.combinations(range(k), n))
            rows = _eval_problems([problem], cfg, True)[0]
            for row, idx in zip(rows, slates):
                assert row == self.pick(problem, idx, method)
                sums = {}
                for i in idx:
                    c = problem.candidates[i]
                    sums[c.cluster_key] = sums.get(c.cluster_key, 0.0) + c.disc_score
                infinite += any(abs(v) == float("inf") for v in sums.values())
        assert infinite > 100


class TestSeedRange:
    """slate_rng keys Philox with [seed, h]; only 0 <= seed < 2**63 keeps
    that key well defined, and EvalConfig takes no other."""

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64 - 3, 2**64])
    def test_config_rejects(self, seed):
        with pytest.raises(ValueError, match=f"seed out of range.*{seed}"):
            EvalConfig(n=1, seed=seed)

    def test_edges_accepted(self):
        assert EvalConfig(n=1, seed=0).seed == 0
        assert EvalConfig(n=1, seed=2**63 - 1).seed == 2**63 - 1

    def test_cli_reports_an_error(self, tmp_path, capsys):
        data = tmp_path / "pools.jsonl"
        assert cli.main(["simulate", "-o", str(data), "--n-problems", "2",
                         "--pool-size", "4"]) == 0
        code = cli.main(["--seed", str(2**64), "evaluate", "-i", str(data),
                         "--method", "sc", "-n", "2", "--draws", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: seed out of range [0, 2**63): {2**64}" in err

    def test_negative_seed_with_a_high_hash(self):
        # numpy would cast -5.0 to uint64, which C leaves undefined
        problem = Problem(problem_id="prob-17", candidates=tuple(
            Candidate(candidate_id=f"c{i}", answer_raw="a", answer_key="a",
                      correct=True) for i in range(3)
        ))
        assert _pid_hash("prob-17") >= 2**63
        with pytest.raises(ValueError, match="seed out of range"):
            bootstrap_accuracy([problem], EvalConfig(n=2, seed=-5))
