"""The package keeps at most OPTIONS_CEILING options: the defaulted
parameters and dataclass fields that `tools/counts.py` counts.  A new
option raises the ceiling here, with its reason in CHANGES.md."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).parent.parent
OPTIONS_CEILING = 21


def test_options_stay_under_the_ceiling(capsys):
    spec = importlib.util.spec_from_file_location("counts",
                                                  ROOT / "tools" / "counts.py")
    counts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counts)
    assert counts.main([str(ROOT / "src")]) == 0
    assert json.loads(capsys.readouterr().out)["options"] <= OPTIONS_CEILING
