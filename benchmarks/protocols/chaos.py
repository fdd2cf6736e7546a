"""The chaos invariant harness with a study protocol in every session.

``python -m repro.faults`` runs the shipped frontier protocol; this
runs the same seeds, plans, invariants and artifacts with one of
:data:`benchmarks.protocols.PROTOCOLS` instead, so Bloom false
positives and sketch fallbacks face the same fault matrix::

    PYTHONPATH=src python -m benchmarks.protocols.chaos \\
        --protocol sketch --random 8 --base-seed 7 --out chaos-artifacts

Every flag but ``--protocol`` is ``python -m repro.faults``'s.
"""

from __future__ import annotations

import argparse
import sys

from repro.faults.__main__ import main as faults_main

from benchmarks.protocols import PROTOCOLS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.protocols.chaos",
        description="Run the chaos invariant harness with a study "
                    "protocol; other flags go to python -m repro.faults.",
        allow_abbrev=False,
    )
    parser.add_argument("--protocol", required=True,
                        choices=sorted(PROTOCOLS))
    args, rest = parser.parse_known_args(argv)
    cls = PROTOCOLS[args.protocol]
    print(f"protocol: {args.protocol}", flush=True)
    return faults_main(rest, protocol_factory=lambda push: cls(push=push))


if __name__ == "__main__":
    sys.exit(main())
