"""``python -m repro`` — the repro-snip CLI without the console script.

Dispatches to :func:`repro.experiments.cli.main`, so
``python -m repro run --jobs 4`` and ``repro-snip run --jobs 4``
are the same program.  This is also how file-queue workers start on
remote hosts — ``python -m repro worker --queue /shared/queue`` needs
only the installed package, no console script.
"""

import sys

from .experiments.cli import main

if __name__ == "__main__":
    sys.exit(main())
