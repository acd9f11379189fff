"""The README's code must run as written."""

import re
import shlex
from pathlib import Path

from basingen.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(heading, language):
    """The first ```language block of the README section `heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs():
    exec(compile(code_block("Library quick start", "python"), str(README), "exec"), {})


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [
        line
        for line in code_block("Command-line interface", "bash").splitlines()
        if line.startswith("basingen ")
    ]
    assert lines
    for line in lines:
        command, _, comment = line.partition("#")
        code = main(shlex.split(command)[1:])
        capsys.readouterr()
        assert code == (1 if "exits 1" in comment else 0), line
