"""The repository's scripts keep pointing at names that exist."""

import ast
import importlib.util
from pathlib import Path

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


def test_traced_names_resolve():
    # ``perfbench/run.py --trace 1`` patches these by name
    spans = load_script("perfbench/spans.py")
    for module, attr, _, _ in spans.TRACED:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    assert callable(qconsensus.optimize._RateEvaluator.rates)


def test_demo_imports_resolve():
    # the package re-exports only what the demos use; no demo is run here
    for script in sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(script.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "qconsensus":
                for alias in node.names:
                    assert hasattr(qconsensus, alias.name), (script.name, alias.name)
