"""`python -m hotgate`: the `hotgate` command, for a checkout that is not installed."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
