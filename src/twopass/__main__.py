"""``python -m twopass``: the experiment CLI, the same as the ``twopass`` script."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
