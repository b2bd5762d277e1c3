"""``python -m lifetaint``: the command-line batch driver."""

import sys

from .cli import main

sys.exit(main())
