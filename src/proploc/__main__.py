"""Command-line entry point: ``python -m proploc`` runs :func:`proploc.cli.main`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
