"""The benchmark's traced names still bind to functions under ``src/``.

``perfbench/tracing.py`` wraps each ``scanfuse`` function named in its
``TARGETS``; a renamed or deleted one would leave its per-layer metrics
silently at 0. The full benchmark tests (``python3 -m pytest -q
perfbench/tests``) catch that too, but run for many seconds.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def test_every_traced_target_exists():
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.TARGETS)
        assert tracer.missing == []
    finally:
        tracer.uninstall()
