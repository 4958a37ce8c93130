"""CLI stdout pinned byte for byte on one small synthetic dataset.

Each command of COMMANDS runs in process through cli.main on the pools
that `verisel --seed 42 simulate` writes with DATASET's flags, each of
EMITTERS with no input, and the SHA-256 of its stdout must equal the one
recorded in HASHES. The hashes were recorded from the code before the
rule inputs moved to selection._scored, and those of `simulate` and
`cost -i` from the code before a Problem's columns were read back in one
place, Problem._plain_columns (see CHANGES.md), so a change that means
to keep every output keeps them. After a change that means to alter an
output, print the new table with

    PYTHONPATH=src python tests/test_output_hashes.py

and say in CHANGES.md which hashes moved, and why.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from verisel.cli import main
from verisel.selection import METHODS

DATASET = ["--n-problems", "12", "--pool-size", "16", "--answer-space", "3",
           "--gen-verifications", "4"]
_CURVE = ["curve", "--methods", ",".join(METHODS), "--draws", "30"]
_MODELS = ["--solver-preset", "qwen2.5-32b", "--verifier-preset", "qwen2.5-1.5b"]
_FLOPS = [*_CURVE, "--n-grid", "1,2,4,8", "--m-grid", "1,2,4", *_MODELS,
          "--verify-out", "64"]

# name -> argv after the global --seed 42; the input goes last, as -i
COMMANDS = {
    **{f"select {m}{ties}": ["select", "--method", m, *ties.split()]
       for ties in ("", " --random-ties") for m in METHODS},
    **{f"evaluate {m}": ["evaluate", "--method", m, "-n", "4", "--draws", "50"]
       for m in METHODS},
    "curve flops --jobs 1": ["--jobs", "1", *_FLOPS],
    "curve flops --jobs 2": ["--jobs", "2", *_FLOPS],
    "curve latency": [*_CURVE, "--n-grid", "1,2,4", "--m-grid", "2",
                      "--budget", "latency", "--format", "json"],
    "cost -i disc": ["cost", "--mode", "disc", *_MODELS],
    "cost -i gen": ["cost", "--mode", "gen", "-M", "4", *_MODELS, "--verify-out", "64"],
}

# name -> argv after the global --seed 42, for commands that read no input
EMITTERS = {
    "simulate": ["simulate", *DATASET],
    "simulate --verify-out 64": ["simulate", *DATASET, "--verify-out", "64"],
}

HASHES = {
    "select sc": "452afa3274aab1da10cec58c780ce0ae19ed0e5bd25f3895164549287c34c033",
    "select bon": "08f671d32ffd860eaeff97a1cc15efc9c00f2d049b1b045de63bbaa254f8d6b6",
    "select wsc": "9091cde9b47a098a507633d9842683843455053b4d2a434608a92a4dc6ded78e",
    "select pv": "4bd3aa1785f7b48f08bdce76cd02ec486022e6510e28ae11c00c0b877d5c8329",
    "select gpv": "13e68a6d202519e7f0069991ca0937f727ac71b597b1d1d05a4d2c346097866c",
    "select sc --random-ties": "452afa3274aab1da10cec58c780ce0ae19ed0e5bd25f3895164549287c34c033",
    "select bon --random-ties": "08f671d32ffd860eaeff97a1cc15efc9c00f2d049b1b045de63bbaa254f8d6b6",
    "select wsc --random-ties": "9091cde9b47a098a507633d9842683843455053b4d2a434608a92a4dc6ded78e",
    "select pv --random-ties": "4bd3aa1785f7b48f08bdce76cd02ec486022e6510e28ae11c00c0b877d5c8329",
    "select gpv --random-ties": "13e68a6d202519e7f0069991ca0937f727ac71b597b1d1d05a4d2c346097866c",
    "evaluate sc": "bbe6648808f7d19e4cf73040010b39ca87b0bb088ceb40edfefecffb85836b10",
    "evaluate bon": "2ace7fa062c1e6607e218e8d8f4280c1043b802c9591974b209cd087dbe48d00",
    "evaluate wsc": "4f99dd11f43934d07bd2990444e0ca4435417e7c65a5c5b1ee9e50aee543e0a7",
    "evaluate pv": "d5e158f764f022a5fce0f93c1f64f447251ccabd942128f52c3725a684f53cf7",
    "evaluate gpv": "550bbc1fddbd5df062baf3a56a7006f0cd87175936acbd171b9cfaed1ae20f67",
    "curve flops --jobs 1": "bbcf314f652ae306822fdb7d0c1f007450051f3b37ce86a0b0d9c8fcfd29c1c1",
    "curve flops --jobs 2": "bbcf314f652ae306822fdb7d0c1f007450051f3b37ce86a0b0d9c8fcfd29c1c1",
    "curve latency": "6705c52bc33c4e9ef4c91d70b5c90fbe72d2a36b7a933ae5271b15fb9cf4f2f1",
    "cost -i disc": "3b52108ef77b1828e3ef8e15ba9593005057a8eb5d5755ccc1b441f7642e0393",
    "cost -i gen": "c56d4e1a3992e2e7a11e1f0762e499b18fa41e87676b9eb81179f979bd3de4ad",
    "simulate": "93172673c28cf8a8ca1f75f1c49482c3e7382e4e4e5eada0c0fd33799bebe56f",
    "simulate --verify-out 64": "d5c35d20117335fa7c4065b1279ca86e1b542c8a322dd90df813ef33c1553c8b",
}


def _stdout(argv: list) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def output_hashes(directory: Path) -> dict:
    """The SHA-256 of each command's stdout, by name."""
    data = str(directory / "pools.jsonl")
    assert _stdout(["--seed", "42", "simulate", "-o", data, *DATASET]) == ""
    runs = {**{name: [*argv, "-i", data] for name, argv in COMMANDS.items()},
            **EMITTERS}
    return {name: hashlib.sha256(_stdout(["--seed", "42", *argv]).encode()).hexdigest()
            for name, argv in runs.items()}


def test_outputs_unchanged(tmp_path):
    assert output_hashes(tmp_path) == HASHES


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in output_hashes(Path(tmp)).items():
            sys.stdout.write(f'    "{name}": "{digest}",\n')
