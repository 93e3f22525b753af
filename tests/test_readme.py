"""README.md keeps the grammar and the numbers the package prints."""

import contextlib
import io
import re
import shlex
import textwrap
from pathlib import Path

from numpy.testing import assert_allclose

from qconsensus.cli import TOPOLOGY_GRAMMAR, main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks(lang):
    """The bodies of README's fenced blocks opened with ```<lang>, in order."""
    blocks, body, tag = [], None, None
    for line in README.read_text(encoding="utf-8").splitlines(keepends=True):
        if body is None:
            if line.startswith("```"):
                body, tag = [], line[3:].strip()
        elif line.strip() == "```":
            if tag == lang:
                blocks.append("".join(body))
            body = None
        else:
            body.append(line)
    return blocks


def test_readme_grammar_is_the_cli_grammar():
    # the help epilog indents its example by four spaces; README fences it
    example = [line for line in TOPOLOGY_GRAMMAR.splitlines() if line.startswith("    ")]
    blocks = [b for b in fenced_blocks("") if b.startswith("name: ")]
    assert len(blocks) == 1
    assert blocks[0] == textwrap.dedent("\n".join(example)) + "\n"


def test_readme_quick_start_prints_its_commented_values():
    code = fenced_blocks("python")[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    checked = 0
    for line, got in zip(prints, printed):
        comment = line.partition("#")[2].split()
        if not all(re.fullmatch(r"[-+.\deE]+", tok) for tok in comment):
            continue  # a comment in words names no value
        assert_allclose([float(tok) for tok in got.split()],
                        [float(tok) for tok in comment], rtol=1e-12)
        checked += 1
    assert checked == 1


def test_readme_quick_start_commands_run(tmp_path, monkeypatch):
    # each qcl line of the quick start, in process, in an empty directory
    (block,) = [b for b in fenced_blocks("sh") if b.startswith("qcl ")]
    lines = block.splitlines()
    assert len(lines) == 5 and all(line.startswith("qcl ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(shlex.split(line, comments=True)[1:]) == 0, line
        assert out.getvalue(), line
    # pareto writes its --out, simulate its default <name>-trajectory.csv
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["cloud.csv", "g1-3-trajectory.csv"]
    assert all((tmp_path / name).stat().st_size for name in written)
