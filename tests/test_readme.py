"""The README's examples run as written: each python block prints the
value its comments state, and each command line exits 0."""

import contextlib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()

PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
CLI_LINES = [line for line in README.splitlines()
             if line.startswith("python3 -m invword.cli ")]

# a print whose comment starts with a value, as in "print(w.length)  # 1: ..."
STATED = re.compile(r"^\s*print\(.*\)\s*#\s*(True|False|\d+)\b")


def test_readme_has_its_examples():
    assert len(PYTHON_BLOCKS) == 3
    assert any(" > w.json" in line for line in CLI_LINES)
    assert any(" verify " in line for line in CLI_LINES)


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=["quick-start", "permutations", "distances"])
def test_python_block_prints_what_it_states(block):
    prints = [line for line in block.splitlines()
              if line.lstrip().startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    stated = [(STATED.match(p), got) for p, got in zip(prints, printed)]
    assert any(m for m, _ in stated)
    for m, got in stated:
        if m:
            assert got == m.group(1), (m.group(0), got)


def test_command_lines_exit_zero(tmp_path):
    env = {"PYTHONPATH": str(ROOT / "src")}
    for line in CLI_LINES:
        argv, _, target = line.partition(" > ")
        argv = shlex.split(argv)
        argv[0] = sys.executable
        out = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, (line, out.stderr)
        if target:
            (tmp_path / target).write_text(out.stdout)
        if " verify " in line:
            assert out.stdout.startswith("ok length=")
    assert (tmp_path / "w.json").is_file()
