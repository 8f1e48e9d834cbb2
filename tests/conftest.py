import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

SRC = Path(__file__).resolve().parent.parent / "src" / "admgident"


def _import_time() -> str:
    """Median wall time of 3 fresh interpreters that import admgident from this checkout and exit."""
    code = f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import admgident"
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        # A failing import is left for collection to report; the header only says so.
        if subprocess.run([sys.executable, "-c", code], capture_output=True).returncode:
            return "import failed"
        walls.append(time.perf_counter() - t0)
    return f"{1000 * statistics.median(walls):.0f} ms (median of 3)"


def pytest_report_header(config):
    """Machine facts every timing is quoted with, and the size and start-up time of the code timed."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # Newlines, as `cat src/admgident/*.py | wc -l` counts them.
    src_lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    return (
        f"nproc {nproc}, Python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
        f"src/admgident {src_lines} lines, fresh `import admgident` {_import_time()}"
    )
