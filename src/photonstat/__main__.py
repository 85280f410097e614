"""`python -m photonstat`: the same command line as the photonstat script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
