"""``python -m repro.simcheck`` — lint, flow, purity, all + smoke entry point."""

import sys

from .cli import main

sys.exit(main())
