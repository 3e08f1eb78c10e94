"""Every exported or externally looked-up name resolves, and the scripts run."""

import ast
import importlib
import importlib.util
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ["encodings", "entanglement", "io", "linalg", "simulator", "synthesis"]


@pytest.mark.parametrize("module", ["qlift"] + [f"qlift.{m}" for m in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_package_exports_every_module_list_once():
    import qlift

    lists = [importlib.import_module(f"qlift.{m}").__all__ for m in MODULES if m != "io"]
    expected = [name for names in lists for name in names]
    assert qlift.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_traced_names_resolve(monkeypatch):
    """The benchmark's tracer wraps these (module, function) pairs by name."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tables = (tracing.SPANS, tracing.COUNTS, tracing.TRIED)
    pairs = [(m, a) for table in tables for m, attrs in table.values() for a in attrs]
    assert pairs
    missing = [
        (m, a) for m, a in pairs if not callable(getattr(importlib.import_module(m), a, None))
    ]
    assert not missing


def test_one_range_rule():
    """The products leave the double range by one rule: np.errstate is
    called only in linalg._in_range, and no module but linalg imports
    _scale_back."""
    calls, imports = [], []
    for path in sorted(Path(ROOT, "src", "qlift").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "errstate":
                    calls.append((path.stem, getattr(top, "name", None)))
                if isinstance(node, ast.ImportFrom) and any(a.name == "_scale_back" for a in node.names):
                    imports.append(path.stem)
    assert calls == [("linalg", "_in_range")]
    assert imports == []


@pytest.mark.parametrize("script", ["bell_pipeline.py", "cli_transcript.py", "not_variant_census.py", "numeric_fingerprint.py"])
def test_script_runs(script, capsys):
    runpy.run_path(os.path.join(ROOT, "scripts", script), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_use_runs(capsys):
    """The README's documented API is the fixed surface: its example runs."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.startswith("[0.7071")


def test_ab_runs_with_the_repo_as_its_own_parent():
    """scripts/ab.py on one block of one cli cycle, the repo against
    itself: the fingerprint and the transcript are identical, and both
    sides run every job and none fails."""
    script = os.path.join(ROOT, "scripts", "ab.py")
    argv = ["--parent", ROOT, "--workload", "cli", "--blocks", "1", "--cycles", "1"]
    out = subprocess.run([sys.executable, script, *argv], capture_output=True, text=True, check=True).stdout
    assert out.startswith("bits: fingerprint identical; transcript identical\n")
    assert out.count(", 0 failed jobs") == 2 and "change won" in out


def test_ab_sites_run_with_the_repo_as_its_own_parent():
    """scripts/ab.py --sites for one block, the repo against itself: the
    bits line, then one line per named call site with both sides' medians
    and the ratio."""
    script = os.path.join(ROOT, "scripts", "ab.py")
    argv = ["--parent", ROOT, "--sites", "--blocks", "1"]
    out = subprocess.run([sys.executable, script, *argv], capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert lines[:2] == ["bits: fingerprint identical; transcript identical", "sites: 1 blocks, per-call times"]
    sites = [line.split(":")[0] for line in lines[2:]]
    assert "report ququart n=5" in sites and "quantize_irreversible qubit 3->2" in sites and len(sites) == 14
    assert all("parent median" in line and "change/parent" in line for line in lines[2:])
