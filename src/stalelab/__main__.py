"""`python -m stalelab`: the `stalelab` command line (see `cli`)."""

import sys

from .cli import main

sys.exit(main())
