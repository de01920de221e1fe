"""The package keeps at most OPTIONS_CEILING options: the defaulted
parameters, dataclass fields and environment reads that `tools/counts.py`
counts, and at most SRC_LINES_CEILING lines of Python under src/.  A new
option, or a change that grows src/, raises its ceiling here, with the
reason in CHANGES.md."""

import ast
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).parent.parent
OPTIONS_CEILING = 15
SRC_LINES_CEILING = 3281


def _counts():
    spec = importlib.util.spec_from_file_location("counts",
                                                  ROOT / "tools" / "counts.py")
    counts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counts)
    return counts


def test_options_stay_under_the_ceiling(capsys):
    assert _counts().main([str(ROOT / "src")]) == 0
    assert json.loads(capsys.readouterr().out)["options"] <= OPTIONS_CEILING


def test_src_stays_under_the_line_ceiling(capsys):
    assert _counts().main([str(ROOT / "src")]) == 0
    assert json.loads(capsys.readouterr().out)["src_lines"] <= \
        SRC_LINES_CEILING


def test_each_environment_read_is_an_option():
    source = ("import os\n"
              "a = os.environ['A']\n"
              "b = os.environ.get('B', '1')\n"
              "c = os.getenv('C')\n"
              "os.environ['D'] = '1'\n"  # a write sets nothing a caller reads
              "env = dict(os.environ)\n")
    assert _counts().options(ast.parse(source)) == 3


def test_list_names_each_option(capsys, tmp_path):
    source = ("import os\n"
              "from dataclasses import dataclass\n"
              "def f(a, b=1, *, c, d=2):\n"
              "    def inner(e=3): pass\n"
              "@dataclass\n"
              "class C:\n"
              "    x: int\n"
              "    y: int = 0\n"
              "    def method(self, z=None):\n"
              "        return os.getenv('Z')\n")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(source)
    assert _counts().main(["--list", str(tmp_path)]) == 0
    head, *names = capsys.readouterr().out.splitlines()
    assert names == ["pkg.mod.f(b)", "pkg.mod.f(d)", "pkg.mod.f.inner(e)",
                     "pkg.mod.C.y", "pkg.mod.C.method(z)",
                     "pkg.mod.C.method: os.getenv('Z')"]
    assert json.loads(head) == {"src_lines": 10, "options": 6}
