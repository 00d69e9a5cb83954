"""Every demo script, and the README's code, runs to completion against the
package sources."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ncgraph import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run():
    # the README's fenced python blocks, in order, in one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # each ncgraph line of the README's command-line block, in order, in one
    # directory: every file a command reads, an earlier one writes
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```",
                      (ROOT / "README.md").read_text(), re.MULTILINE | re.DOTALL)
    commands = [shlex.split(line, comments=True) for line in block.group(1).splitlines()]
    assert len(commands) >= 5 and all(c[0] == "ncgraph" for c in commands)
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert cli.main(command[1:]) == 0, (command, capsys.readouterr().err)
