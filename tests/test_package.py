"""The package is its modules: each imports on its own, and the README's
library example runs as written."""

import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "scanfuse"
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]))


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that finds the package under ``src``."""
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_module_discovery_finds_the_package():
    assert {"cli", "fusion", "toynet"} <= set(MODULES)


# A module that imports only after another one has loaded (an import cycle
# such as config -> fusion -> ... -> config) fails here.
@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_in_a_fresh_interpreter(module):
    done = run_fresh(f"import scanfuse.{module}")
    assert done.returncode == 0, done.stderr


def test_the_readme_library_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    done = run_fresh(example)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("LossBreakdown(seg_student=")
