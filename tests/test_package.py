"""The package's public surface: its exports and README's examples."""

import contextlib
import io
import re
import shlex
import types
from pathlib import Path

import graphpick
from graphpick import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_every_public_binding_once():
    exported = graphpick.__all__
    assert len(exported) == len(set(exported))
    bound = {
        name
        for name, value in vars(graphpick).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == bound


def test_readme_library_example_prints_its_comments():
    """Each ``print(...)  # text`` line prints ``text``, or a line starting
    with it when ``text`` ends in ``...``."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = []
    for line in code.splitlines():
        if line.startswith("print("):
            match = re.search(r"\)\s+# (.*)$", line)
            assert match, f"print without an output comment: {line}"
            expected.append(match.group(1))
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3])
        else:
            assert got == want


def test_readme_command_line_examples_print_their_output(tmp_path, monkeypatch, capsys):
    """Each ``$ graphpick ...`` example prints the lines under it, once the
    ``$ echo '...' > file`` lines before it have written their files."""
    section = README.read_text(encoding="utf-8").split("\nExamples:\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    runs = []
    for line in block.splitlines():
        if line.startswith("$ echo "):
            text, name = re.fullmatch(r"\$ echo '(.*)' > (\S+)", line).groups()
            (tmp_path / name).write_text(text + "\n", encoding="utf-8")
        elif line.startswith("$ graphpick "):
            runs.append((shlex.split(line.removeprefix("$ graphpick ")), []))
        elif line:
            runs[-1][1].append(line)
    assert len(runs) == 3
    for argv, expected in runs:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines() == expected
