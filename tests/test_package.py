"""The package's loading contract, checked in fresh interpreters where
what is loaded matters: `import verisel` loads core and records only, a CLI
command loads only the modules it runs (evaluate and curve load neither
numpy.random nor hashlib unless a draw goes through slate_rng), and every
other public name and submodule loads on first access, looked up in its
home module each time."""

import subprocess
import sys

import verisel
from verisel import SynthSpec, generate_pool
from verisel.records import records_text

MODULES = ("cli", "core", "costs", "evaluate", "ranking", "records",
           "selection", "synth")


def python(*args: str) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    return done


def run(script: str) -> str:
    return python("-c", script).stdout


def imported(stderr: str) -> set[str]:
    """The modules `python -X importtime` reports loading."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


class TestLoadedModules:
    def test_import_loads_core_and_records(self):
        out = run("import sys, verisel\n"
                  "print(sorted(m for m in sys.modules if m.startswith('verisel')))\n"
                  "print([m for m in ('fractions', 'logging') if m in sys.modules])")
        assert out == "['verisel', 'verisel.core', 'verisel.records']\n[]\n"

    def test_evaluate_loads_neither_ranking_nor_synth(self, tmp_path):
        data, report = tmp_path / "pools.jsonl", tmp_path / "report.json"
        data.write_text(records_text(generate_pool(SynthSpec(
            seed=5, n_problems=3, pool_size=8, p_correct=0.5))))
        done = python("-X", "importtime", "-m", "verisel", "evaluate",
                      "-i", str(data), "--method", "pv", "-n", "2",
                      "--draws", "5", "-o", str(report))
        loaded = imported(done.stderr)
        assert {"verisel.cli", "verisel.evaluate", "verisel.selection"} <= loaded
        assert not {"verisel.ranking", "verisel.synth"} & loaded
        assert '"method": "pv"' in report.read_text()

    def test_slates_load_neither_numpy_random_nor_hashlib(self, tmp_path):
        """Slate keys are formed without a generator and hashed with the
        built-in sha256, so only a draw through slate_rng (here, with
        replacement) loads numpy.random; a process pool loads none of them
        either."""
        data = tmp_path / "pools.jsonl"
        data.write_text(records_text(generate_pool(SynthSpec(
            seed=5, n_problems=3, pool_size=8, p_correct=0.5))))
        heavy = {"numpy.random", "secrets", "hmac", "hashlib", "_hashlib"}
        for command in (
            ["--jobs", "1", "evaluate", "--method", "pv", "-n", "3"],
            ["--jobs", "2", "curve", "--methods", "sc,pv", "--n-grid", "1,4",
             "--budget", "latency"],
        ):
            done = python("-X", "importtime", "-m", "verisel", *command,
                          "-i", str(data), "--draws", "40")
            assert not heavy & imported(done.stderr), command
        done = python("-X", "importtime", "-m", "verisel", "--jobs", "1",
                      "evaluate", "-i", str(data), "--method", "sc", "-n", "3",
                      "--draws", "40", "--replacement", "--format", "csv")
        assert "numpy.random" in imported(done.stderr)
        assert done.stdout == ("method,n,mean,ci_low,ci_high,draws,seed\n"
                               "sc,3,0.383333,0.303833,0.462834,40,0\n")


class TestLazyNames:
    def test_names_are_their_home_objects(self):
        out = run(
            "import sys, verisel\n"
            f"for name in {MODULES!r}:\n"
            "    assert getattr(verisel, name) is sys.modules['verisel.' + name], name\n"
            "homes = [sys.modules['verisel.' + m] for m in " f"{MODULES!r}]\n"
            "for name in verisel.__all__:\n"
            "    value = getattr(verisel, name)\n"
            "    home = sys.modules.get(getattr(value, '__module__', ''))\n"
            "    if home is not None and home.__name__.startswith('verisel.'):\n"
            "        assert getattr(home, name) is value, name\n"
            "    elif name != '__version__':\n"
            "        assert any(vars(m).get(name) is value for m in homes), name\n"
            "star = {}\n"
            "exec('from verisel import *', star)\n"
            "assert set(star) - {'__builtins__'} == set(verisel.__all__)\n"
            "print('ok')")
        assert out == "ok\n"

    def test_dir_and_unknown_names(self):
        assert set(verisel.__all__) <= set(dir(verisel))
        assert set(MODULES) <= set(dir(verisel))
        assert not hasattr(verisel, "no_such_name")
        try:
            verisel.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("no AttributeError")

    def test_patched_home_module_shows_through(self):
        out = run(
            "import verisel, verisel.selection as selection\n"
            "original = selection.select_answer\n"
            "selection.select_answer = patched = lambda *a: None\n"
            "assert verisel.select_answer is patched\n"
            "selection.select_answer = original\n"
            "assert verisel.select_answer is original\n"
            "assert 'select_answer' not in vars(verisel)\n"
            "print('ok')")
        assert out == "ok\n"
