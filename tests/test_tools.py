"""The repository's scripts keep pointing at names that exist."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qconsensus
import qconsensus.optimize

ROOT = Path(__file__).resolve().parents[1]


def load_script(relpath):
    spec = importlib.util.spec_from_file_location(Path(relpath).stem, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_numbers_covers_every_subcommand(tmp_path):
    tool = load_script("tools/same_numbers.py")
    used = {argv[0] for argv in tool.commands(str(tmp_path))}
    assert used == {"rates", "spectrum", "optimize", "pareto", "simulate"}


def test_same_numbers_compare_shows_a_moved_stderr_line(tmp_path, capsys):
    tool = load_script("tools/same_numbers.py")
    rec = {"code": 3, "out": "", "err": "numerical failure: nan/inf\n"}
    (tmp_path / "a.json").write_text(json.dumps({"rates g1-3": rec}))
    (tmp_path / "b.json").write_text(json.dumps({"rates g1-3": dict(rec, err="")}))
    assert tool.compare(tmp_path / "a.json", tmp_path / "b.json") == 1
    assert "   stderr - numerical failure: nan/inf" in capsys.readouterr().out.splitlines()


def test_traced_names_resolve():
    # ``perfbench/run.py --trace 1`` patches these by name
    spans = load_script("perfbench/spans.py")
    for module, attr, _, _ in spans.TRACED:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    assert callable(qconsensus.optimize._RateEvaluator.rates)


def test_demo_imports_resolve():
    # the package re-exports only what the demos use
    for script in sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(script.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "qconsensus":
                for alias in node.names:
                    assert hasattr(qconsensus, alias.name), (script.name, alias.name)


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(tmp_path, script):
    # each demo reaches the rate path through pareto_scan, maximize_rate
    # or convergence_rates; any file it writes lands in its working directory
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if script == "pareto_tradeoff.py":
        assert (tmp_path / "pareto_tradeoff.csv").is_file()
