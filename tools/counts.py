"""Print the size of the package as one JSON line: `src_lines`, the lines of
every `.py` file under src/, and `options`, the knobs a caller may leave
unset: the defaulted parameters of every `def` plus the defaulted fields of
every dataclass.

    python3 tools/counts.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
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
