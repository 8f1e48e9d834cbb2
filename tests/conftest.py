import os
import platform

import numpy as np
import scipy


def pytest_report_header(config):
    """Machine facts every timing is quoted with."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"nproc {nproc}, Python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}"
