"""``python -m tilecast``: the ``tilecast`` command, also from a checkout with no install."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
