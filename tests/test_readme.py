"""README's Library example runs and prints what its comments say."""
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The first python block under ``## Library``."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_its_comments(capsys):
    code = library_example()
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    exec(compile(code, str(README), "exec"), {})
    assert expected
    assert capsys.readouterr().out.splitlines() == expected
