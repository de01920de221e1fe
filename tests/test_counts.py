"""The package keeps at most OPTIONS_CEILING options: the defaulted
parameters, dataclass fields and environment reads that `tools/counts.py`
counts.  A new option raises the ceiling here, with its reason in
CHANGES.md."""

import ast
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).parent.parent
OPTIONS_CEILING = 21


def _counts():
    spec = importlib.util.spec_from_file_location("counts",
                                                  ROOT / "tools" / "counts.py")
    counts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counts)
    return counts


def test_options_stay_under_the_ceiling(capsys):
    assert _counts().main([str(ROOT / "src")]) == 0
    assert json.loads(capsys.readouterr().out)["options"] <= OPTIONS_CEILING


def test_each_environment_read_is_an_option():
    source = ("import os\n"
              "a = os.environ['A']\n"
              "b = os.environ.get('B', '1')\n"
              "c = os.getenv('C')\n"
              "os.environ['D'] = '1'\n"  # a write sets nothing a caller reads
              "env = dict(os.environ)\n")
    assert _counts().options(ast.parse(source)) == 3
