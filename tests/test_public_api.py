"""The package root exports exactly the API that the README's Python API
block imports, and that block runs as written."""

import ast
import pathlib
import re
import types

import mazekit

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _api_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_api_block_runs(capsys):
    exec(compile(_api_block(), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "<|origin|>" in out and "RESET" in out


def test_package_root_exports_the_readme_api():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(_api_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "mazekit"
        for alias in node.names
    }
    public = {
        name
        for name, value in vars(mazekit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == imported
