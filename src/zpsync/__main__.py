"""``python -m zpsync``: the command-line interface, as the ``zpsync`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
