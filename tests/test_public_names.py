"""Every public top-level function and class of ``src/dispro``, and every
public method, property and annotated field of its public classes, has a
use outside its own definition in the package (``__init__.py`` aside), the
demos or the benchmark. A top-level name is used where it appears as a
word in code, outside comments and docstrings; a method, property or field
where it is read as an attribute of anything but an imported module
(``spec.global_names`` is no use of a method ``global_names``; building a
dataclass by keyword reads none of its fields). Reads are matched by attribute name alone, so a read of the same
name on an object of another class counts as a use: ``model.variant`` in
``fitting.py`` is a use of every class's ``variant`` field. Every long
option of the command line, likewise, appears in the benchmark, the demos
or the README, and every defaulted parameter of a public function is set
by some call there. Tests do not count as a use."""

import argparse
import ast
import io
import re
import tokenize
from pathlib import Path

from dispro.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays without a use
ALLOWED = {
    "Normal.logpdf": "the prior density the density tests check the model's "
                     "prior tables against",
    "TruncatedNormal.logpdf": "the prior density the density tests check the "
                              "model's prior tables against",
    "FaFit.loglik_trace": "the per-iteration log-likelihood the EM "
                          "monotonicity tests read",
}


def _own_lines(node) -> range:
    start = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return range(start - 1, node.end_lineno)


def _code_lines(text: str, tree) -> list[str]:
    """The lines of ``text`` with every comment and docstring line blank."""
    lines = text.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines[doc.lineno - 1:doc.end_lineno] = [""] * (
                doc.end_lineno - doc.lineno + 1)
    return lines


def _attribute_reads(tree) -> list[tuple[str, int]]:
    """(attribute, line index) of every ``x.attribute`` whose ``x`` is not
    a module bound by an ``import`` statement."""
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    return [(node.attr, node.lineno - 1) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and not (isinstance(node.value, ast.Name)
                     and node.value.id in modules)]


def unused_public_names() -> list[str]:
    package = sorted(p for p in (ROOT / "src" / "dispro").glob("*.py")
                     if p.name != "__init__.py")
    users = [*package, *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "bench").glob("*.py"))]
    texts = {p: p.read_text() for p in users}
    trees = {p: ast.parse(texts[p]) for p in users}
    lines = {p: _code_lines(texts[p], trees[p]) for p in users}
    reads = {p: _attribute_reads(trees[p]) for p in users}
    unused = []
    for path in package:
        for node in trees[path].body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            own = _own_lines(node)
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(line) for p in users
                       for i, line in enumerate(lines[p])
                       if not (p == path and i in own)):
                unused.append(node.name)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name, own = item.name, _own_lines(item)
                elif (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    name = item.target.id
                    own = range(item.lineno - 1, item.end_lineno)
                else:
                    continue
                if name.startswith("_"):
                    continue
                if not any(attr == name and not (p == path and i in own)
                           for p in users for attr, i in reads[p]):
                    unused.append(f"{node.name}.{name}")
    return unused


def test_every_public_name_has_a_use():
    unused = unused_public_names()
    assert [n for n in unused if n not in ALLOWED] == []
    # an allowed name that found a use leaves the list
    assert sorted(ALLOWED) == sorted(n for n in unused if n in ALLOWED)


def cli_long_options() -> set[str]:
    """Every ``--option`` of the top-level parser and its subcommands,
    ``--help`` aside."""
    parsers = [_build_parser()]
    for action in parsers[0]._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.extend(action.choices.values())
    return {opt for parser in parsers for action in parser._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"}


def test_every_cli_option_has_a_use():
    texts = [p.read_text() for p in (*sorted((ROOT / "bench").glob("*.py")),
                                     *sorted((ROOT / "demos").glob("*.py")),
                                     ROOT / "README.md")]
    unused = sorted(opt for opt in cli_long_options()
                    if not any(re.search(rf"{re.escape(opt)}(?![\w-])", text)
                               for text in texts))
    assert unused == []



# "function(parameter)" -> why its default stays without a caller that sets it
UNSET_DEFAULTS: dict[str, str] = {}


def _defaulted(fn) -> list[tuple[int | None, str]]:
    """(position or None, name) of each parameter of ``fn`` that has a
    default; a keyword-only parameter has no position."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    return ([(i, positional[i].arg) for i in range(first, len(positional))]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _sets(call, position, name) -> bool:
    """Whether ``call`` passes the parameter ``name`` at ``position`` (an
    index among the call's own arguments, or None)."""
    if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or len(call.args) > position)


def unset_defaults() -> list[str]:
    """``function(parameter)`` for each defaulted parameter of a public
    function, or of a public method of a public class, in the package that
    no call in the package, the demos or the benchmark sets, by position or
    by keyword. A call is matched by the callee's name alone, as ``f(...)``
    or ``x.f(...)``, and a method's first parameter is taken as bound; a
    call that spreads ``*args`` or ``**kwargs`` sets every parameter it
    could."""
    package = sorted(p for p in (ROOT / "src" / "dispro").glob("*.py")
                     if p.name != "__init__.py")
    users = [*package, *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "bench").glob("*.py"))]
    calls: dict[str, list[ast.Call]] = {}
    for path in users:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)
    functions = []  # (definition, parameters bound before the call's own)
    for path in package:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions.append((node, 0))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                functions += [(item, 1) for item in node.body
                              if isinstance(item, ast.FunctionDef)]
    return [f"{fn.name}({name})" for fn, bound in functions
            if not fn.name.startswith("_")
            for position, name in _defaulted(fn)
            if not any(_sets(call, None if position is None
                             else position - bound, name)
                       for call in calls.get(fn.name, []))]


def test_every_default_is_set():
    """A default that no caller outside the tests overrides is a constant
    in disguise: the code takes the constant, and a test that needs another
    value patches it."""
    unset = unset_defaults()
    assert [n for n in unset if n not in UNSET_DEFAULTS] == []
    # an allowed default that found a caller leaves the list
    assert sorted(UNSET_DEFAULTS) == sorted(n for n in unset
                                            if n in UNSET_DEFAULTS)
