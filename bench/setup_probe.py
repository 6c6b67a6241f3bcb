"""Time one workload's set-up in this fresh process and print the seconds.

    python3 bench/setup_probe.py WORKLOAD SEED

The clock starts before tsocbmc is imported and stops once the programs are
generated or parsed and their machines and indexes are built.
"""
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, load_package  # noqa: E402


def main(name: str, seed: int) -> None:
    t0 = time.perf_counter()
    pkg = load_package(BENCH.parent)
    WORKLOADS[name](pkg, seed, BENCH.parent).prepare()
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
