"""``python -m ybx``: run the ybx command line, e.g. ``python -m ybx suite --points 5``."""

import sys

from .cli import main

sys.exit(main())
