import os
import platform
from pathlib import Path

import numpy as np
import scipy

SRC = Path(__file__).resolve().parent.parent / "src" / "admgident"


def pytest_report_header(config):
    """Machine facts every timing is quoted with, and the size of the code timed."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # Newlines, as `cat src/admgident/*.py | wc -l` counts them.
    src_lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    return (
        f"nproc {nproc}, Python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
        f"src/admgident {src_lines} lines"
    )
