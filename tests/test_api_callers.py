"""Every public function and class in src/atomchain has a caller outside tests/.

A top-level `def` or `class` whose name does not start with an underscore
counts as called when some file under src/atomchain, scripts/ or bench/
imports it by name from its defining module, or when its own module uses
the name.  Imports from tests/ do not count: a function only the tests
reach is dead code with a test attached.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "atomchain"
CALLER_DIRS = (PACKAGE, ROOT / "scripts", ROOT / "bench")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names() -> set[tuple[str, str]]:
    """(module, name) for every `from atomchain.<module> import name` or `from .<module> import name`."""
    found = set()
    for directory in CALLER_DIRS:
        for path in directory.rglob("*.py"):
            inside_package = path.is_relative_to(PACKAGE)
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.ImportFrom) or node.module is None:
                    continue
                if node.level == 1 and inside_package:
                    module = node.module
                elif node.level == 0 and node.module.startswith("atomchain."):
                    module = node.module.split(".", 1)[1]
                else:
                    continue
                found.update((module, alias.name) for alias in node.names)
    return found


def uncalled_public_names() -> list[str]:
    imported = _imported_names()
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if (path.stem, node.name) not in imported and node.name not in used:
                missing.append(f"{path.stem}.{node.name}")
    return missing


def test_every_public_name_has_a_caller_outside_tests():
    assert uncalled_public_names() == []


def test_scan_sees_the_package():
    # guards against a scan that passes because it found nothing to check
    assert ("cli", "main") in _imported_names()
    assert len(list(PACKAGE.glob("*.py"))) >= 8
