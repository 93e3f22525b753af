"""Make ``src`` importable for the subprocesses some tests start.

``pythonpath = ["src"]`` in pyproject.toml only extends pytest's own
``sys.path``; a test that runs ``python -m qconsensus.cli`` in a child
process needs the package on that process's ``PYTHONPATH`` as well.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
