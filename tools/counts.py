"""Print the size of the package as one JSON line: `src_lines`, the lines of
every `.py` file under src/, and `options`, the knobs a caller may leave
unset: the defaulted parameters of every `def`, the defaulted fields of
every dataclass, and each read of the environment (`os.environ[...]`,
`os.environ.get(...)` or `os.getenv(...)`), which any shell may set.

    python3 tools/counts.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path


def _name(node: ast.AST) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else getattr(
        node, "id", None)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_name(dec.func if isinstance(dec, ast.Call) else dec)
               == "dataclass" for dec in node.decorator_list)


def _reads_environment(node: ast.AST) -> bool:
    if isinstance(node, ast.Subscript):
        return (isinstance(node.ctx, ast.Load)
                and _name(node.value) == "environ")
    if isinstance(node, ast.Call):
        fn = node.func
        return _name(fn) == "getenv" or (
            _name(fn) == "get" and isinstance(fn, ast.Attribute)
            and _name(fn.value) == "environ")
    return False


def options(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign)
                         and stmt.value is not None for stmt in node.body)
        elif _reads_environment(node):
            count += 1
    return count


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).parent.parent / "src")
    lines = opts = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        opts += options(ast.parse(text, str(path)))
    print(json.dumps({"src_lines": lines, "options": opts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
