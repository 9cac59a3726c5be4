"""Every public function, class, field and property in src/atomchain has a
reader outside tests/.

A top-level `def` or `class` whose name does not start with an underscore
counts as called when some file under src/atomchain, scripts/ or bench/
imports it by name from its defining module, or when its own module uses
the name.  A field (an annotated name in a public class body) or a property
of a public class counts as read when some file there loads it as an
attribute, `obj.name`; a read through getattr does not count.  The match
is by name alone, so a dead field that shares its name with some other
attribute read there goes unnoticed.  Imports and reads from tests/ do not
count: state only the tests reach is dead code with a test attached.
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
    for path in _caller_files():
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


def _caller_files():
    for directory in CALLER_DIRS:
        yield from directory.rglob("*.py")


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


def _read_attributes() -> set[str]:
    """Every attribute name some file under CALLER_DIRS loads as `obj.name`."""
    return {
        node.attr
        for path in _caller_files()
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def public_state() -> list[tuple[str, str]]:
    """(module.Class, name) for each field and property of every public class."""
    state = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in _parse(path).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                elif isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list
                ):
                    name = node.name
                else:
                    continue
                state.append((f"{path.stem}.{cls.name}", name))
    return state


def unread_public_state() -> list[str]:
    read = _read_attributes()
    return [f"{owner}.{name}" for owner, name in public_state() if name not in read]


def test_every_public_name_has_a_caller_outside_tests():
    assert uncalled_public_names() == []


def test_every_field_and_property_has_a_reader_outside_tests():
    assert unread_public_state() == []


def test_scan_sees_the_package():
    # guards against a scan that passes because it found nothing to check
    assert ("cli", "main") in _imported_names()
    assert len(list(PACKAGE.glob("*.py"))) >= 8
    state = public_state()
    assert ("dynamics.ExcitationState", "amps") in state
    assert ("dynamics.ExcitationState", "norm") in state
    assert "amps" in _read_attributes()
