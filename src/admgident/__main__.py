"""`python -m admgident`: the command-line interface of `admgident.cli`."""

import sys

from .cli import main

sys.exit(main())
