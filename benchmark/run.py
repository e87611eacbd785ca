"""vanetsim benchmark entry point; see README.md in this directory.

Run from the root of a checkout:

    python3 benchmark/run.py --workload highway_sweep --seed 1 --seconds 10 --trace 0

The simulator is imported from the checkout's own ``src`` tree; without
it the benchmark exits with status 2 and prints no result.
"""

import sys
from pathlib import Path

BASE_DIR = Path(__file__).resolve().parent.parent


def main() -> int:
    src = BASE_DIR / "src"
    if not (src / "vanetsim" / "__init__.py").is_file():
        print(f"benchmark: no simulator source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    return harness.main(sys.argv[1:], BASE_DIR)


if __name__ == "__main__":
    sys.exit(main())
