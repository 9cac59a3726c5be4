"""main is the only writer in atomchain.cli.

Each `cmd_*` function returns its tables; main names the files, writes
them and writes the manifest.  A command that wrote a file itself could
leave tables that no manifest names, so no `cmd_*` may call `write_table`
or `open`, under any spelling (`write_table(...)`, `cli.write_table(...)`).
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "atomchain" / "cli.py"
FORBIDDEN = {"write_table", "open"}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _commands() -> list[ast.FunctionDef]:
    tree = ast.parse(CLI.read_text(), filename=str(CLI))
    return [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    ]


def test_no_command_writes_a_file():
    writers = sorted(
        f"{command.name} calls {_called_name(node)}"
        for command in _commands()
        for node in ast.walk(command)
        if isinstance(node, ast.Call) and _called_name(node) in FORBIDDEN
    )
    assert writers == []


def test_scan_sees_every_command():
    # guards against a scan that passes because it found no command to check
    assert {c.name for c in _commands()} == {
        "cmd_dispersion",
        "cmd_transmit",
        "cmd_evolve",
        "cmd_disorder",
        "cmd_verify",
    }
