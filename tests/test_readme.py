"""README's Library and CLI examples run and print what their comments say."""
import shlex
from itertools import takewhile
from pathlib import Path

import pytest

from noncomm_recur import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The first python block under ``## Library``."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def cli_examples():
    """(command, stdout lines) for each ``noncomm-recur`` line in a sh
    block that the ``# `` lines after it show the output of."""
    examples = []
    for block in README.read_text(encoding="utf-8").split("```sh\n")[1:]:
        lines = block.split("```", 1)[0].splitlines()
        for i, line in enumerate(lines):
            shown = takewhile(lambda text: text.startswith("# "), lines[i + 1:])
            if line.startswith("noncomm-recur ") and (expected := [s[2:] for s in shown]):
                examples.append((line, expected))
    return examples


def test_library_example_prints_its_comments(capsys):
    code = library_example()
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    exec(compile(code, str(README), "exec"), {})
    assert expected
    assert capsys.readouterr().out.splitlines() == expected


def test_cli_examples_cover_solve_and_enumerate():
    assert {shlex.split(command)[1] for command, _ in cli_examples()} == {"solve", "enumerate"}


@pytest.mark.parametrize("command, expected", cli_examples())
def test_cli_example_prints_its_comments(capsys, monkeypatch, command, expected):
    monkeypatch.chdir(README.parent)  # the examples name files under problems/
    assert cli.main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.splitlines() == expected
