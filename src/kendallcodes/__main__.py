"""``python -m kendallcodes``: the same command line as ``kendallcodes.cli``."""

import sys

from kendallcodes import cli

if __name__ == "__main__":
    sys.exit(cli.main())
