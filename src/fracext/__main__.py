"""Entry point for ``python -m fracext``: the same command line as ``fracext``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
