"""The README runs as written, and the CLI uses only the public library.

The "Library quick tour" block is executed, and each `metriclie ...` line of
the CLI block is run through `cli.main` in a temporary directory.  An AST
check keeps `cli.py` from importing or reading `_`-prefixed names of other
metriclie modules, so every verb goes through the functions the tests call.
"""

import ast
import pathlib
import re
import shlex

from metriclie import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, lang):
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n")[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_quick_tour_runs():
    exec(compile(_block("Library quick tour", "python"), str(README), "exec"),
         {})


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [line.split("#")[0] for line in _block("CLI", "sh").splitlines()
             if line.startswith("metriclie ")]
    assert len(lines) >= 5
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()


def test_cli_uses_no_private_library_names():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("metriclie")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(alias.name)
                if node.module is None:  # from . import catalog
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            private.append(f"{node.value.id}.{node.attr}")
    assert modules and not private
