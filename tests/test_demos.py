"""The demo scripts import only names that exist and call them only with
keywords they accept.

Demos are not run by the suite (some take minutes), so a deleted or renamed
public name or parameter would otherwise break them silently."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def dispro_imports(tree):
    """{local name: (qualified name, object or None)} for each name a demo
    imports from dispro."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "dispro":
            module = importlib.import_module(node.module)
            for a in node.names:
                found[a.asname or a.name] = (f"{node.module}.{a.name}",
                                             getattr(module, a.name, None))
    return found


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    missing = [qual for qual, obj in dispro_imports(tree).values()
               if obj is None]
    assert not missing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_keywords_accepted(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imported = dispro_imports(tree)
    unknown = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            continue
        qual, obj = imported[node.func.id]
        params = inspect.signature(obj).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        unknown += [f"{qual}({kw.arg}=...) line {node.lineno}"
                    for kw in node.keywords
                    if kw.arg is not None and kw.arg not in params]
    assert not unknown
