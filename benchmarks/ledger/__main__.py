import sys

from benchmarks.ledger.cli import main

sys.exit(main())
