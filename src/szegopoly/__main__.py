"""``python -m szegopoly``: the command-line front end, as the szegopoly script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
