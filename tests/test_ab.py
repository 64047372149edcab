"""tools/ab.py, the interleaved A/B launcher: a tiny A/A, and a tree whose
output differs."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_an_a_a_run_reports_ratios_with_intervals(ab, tmp_path):
    out = tmp_path / "ab.json"
    assert ab.main(["--a", str(ROOT / "src"), "--b", str(ROOT / "src"), "--rounds", "3",
                    "--command", "version=-m tradeoffs --version", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    c = report["commands"]["version"]
    assert c["argv"] == ["-m", "tradeoffs", "--version"]
    assert c["refused"] is None and c["rounds"] == 3 and 0 <= c["b_wins"] <= 3
    for ratio in (c["ratio"], c["aa_ratio"]):
        lo, hi = ratio["ci95"]
        assert 0 < lo <= ratio["median"] <= hi
    assert {side: len(t) for side, t in c["times_s"].items()} == {"a": 3, "b": 3, "aa": 3}


def test_a_tree_whose_output_differs_is_refused_a_ratio(ab, tmp_path):
    shutil.copytree(ROOT / "src" / "tradeoffs", tmp_path / "b" / "tradeoffs",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = tmp_path / "b" / "tradeoffs" / "__init__.py"
    text = init.read_text()
    assert '__version__ = "' in text
    init.write_text(text.replace('__version__ = "', '__version__ = "9', 1))
    out = tmp_path / "ab.json"
    ab.main(["--a", str(ROOT / "src"), "--b", str(tmp_path / "b"), "--rounds", "2",
             "--command", "version=-m tradeoffs --version", "--out", str(out)])
    c = json.loads(out.read_text())["commands"]["version"]
    assert (c["ratio"], c["b_wins"], c["refused"]) == (None, None, "outputs differ: stdout")
    assert c["aa_ratio"]["median"] > 0


def test_a_command_needs_a_name_and_an_argv(ab):
    with pytest.raises(SystemExit):
        ab.main(["--a", "src", "--b", "src", "--command", "-m tradeoffs --version"])
