"""Every exported name exists, and modules share no private names."""

import ast
import importlib
import pathlib

import cliffstring

PACKAGE_DIR = pathlib.Path(cliffstring.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if not p.stem.startswith("__"))


def test_every_exported_name_exists():
    missing = []
    for name in ["cliffstring"] + [f"cliffstring.{m}" for m in MODULES]:
        mod = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_no_private_names_imported_from_sibling_modules():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level > 0 or (node.module or "").startswith("cliffstring")
            offenders += [
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if sibling and alias.name.startswith("_")
            ]
    assert offenders == []
