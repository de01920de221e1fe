"""Print the size of the package as one JSON line: `src_lines`, the lines of
every `.py` file under src/, and `options`, the knobs a caller may leave
unset: the defaulted parameters of every `def`, the defaulted fields of
every dataclass, and each read of the environment (`os.environ[...]`,
`os.environ.get(...)` or `os.getenv(...)`), which any shell may set.
`--list` also prints each option on a line of its own after the JSON line.

    python3 tools/counts.py [--list] [SRC_DIR]
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


def option_names(tree: ast.AST, scope: str) -> list[str]:
    """The options of `tree` in source order, named under `scope`: a
    defaulted parameter as `scope.function(param)`, a defaulted dataclass
    field as `scope.Class.field`, an environment read as `scope: <read>`;
    nested definitions extend the scope."""
    names: list[str] = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args, inner = node.args, f"{scope}.{node.name}"
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [arg for arg, default in zip(args.kwonlyargs,
                                                      args.kw_defaults)
                          if default is not None]
            names += [f"{inner}({arg.arg})" for arg in defaulted]
        elif isinstance(node, ast.ClassDef):
            inner = f"{scope}.{node.name}"
            if _is_dataclass(node):
                names += [f"{inner}.{ast.unparse(stmt.target)}"
                          for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)
                          and stmt.value is not None]
        elif _reads_environment(node):
            names.append(f"{scope}: {ast.unparse(node)}")
        names += option_names(node, inner)
    return names


def options(tree: ast.AST) -> int:
    return len(option_names(tree, ""))


def main(argv: list[str]) -> int:
    listing = "--list" in argv
    paths = [arg for arg in argv if arg != "--list"]
    root = Path(paths[0] if paths else Path(__file__).parent.parent / "src")
    lines, names = 0, []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        names += option_names(ast.parse(text, str(path)),
                              module.removesuffix(".__init__"))
    print(json.dumps({"src_lines": lines, "options": len(names)}))
    if listing:
        print("\n".join(names))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
