"""Set-up probe: a fresh interpreter that does the benchmark's set-up
(import, spec generation, validation) and prints ``ready``.  The benchmark
times it from process start to that line.

Usage: python3 perfbench/probe.py WORKLOAD SEED
"""

import sys

from prepare import SetupError, load_library, pin_threads, prepare


def main() -> int:
    pin_threads()
    try:
        _, scenarios = load_library()
        prepare(sys.argv[1], int(sys.argv[2]), scenarios)
    except SetupError as exc:
        print(f"probe: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
