"""The benchmark driver's entry point (see ``BENCHMARK.json``).

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
--trace 0|1`` from the root of a checkout.  Finds ``src/`` beside
``benchmarks/`` by itself, so no ``PYTHONPATH`` is needed.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}: run from a full checkout",
              file=sys.stderr)
        return 2
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.ledger.cli import contract_main

    return contract_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
