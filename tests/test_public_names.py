"""Every public top-level function and class of ``src/dispro`` has a use:
its name appears, as a word, somewhere outside its own definition in the
package (``__init__.py`` aside), the demos or the benchmark. Tests do not
count as a use."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays without a use
ALLOWED = {
    "mcse": "per-global MCSE is to be written into diagnostics.json "
            "(ROADMAP direction 1)",
}


def unused_public_names() -> list[str]:
    package = sorted(p for p in (ROOT / "src" / "dispro").glob("*.py")
                     if p.name != "__init__.py")
    users = [*package, *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "bench").glob("*.py"))]
    lines = {p: p.read_text().splitlines() for p in users}
    unused = []
    for path in package:
        for node in ast.parse("\n".join(lines[path])).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = range(start - 1, node.end_lineno)
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(line) for p in users
                       for i, line in enumerate(lines[p])
                       if not (p == path and i in own)):
                unused.append(node.name)
    return unused


def test_every_public_name_has_a_use():
    unused = unused_public_names()
    assert [n for n in unused if n not in ALLOWED] == []
    # an allowed name that found a use leaves the list
    assert sorted(ALLOWED) == sorted(n for n in unused if n in ALLOWED)
