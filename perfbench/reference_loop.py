"""Fixed pure-Python work that runs beside a benchmark pass, until killed.

    python3 perfbench/reference_loop.py > rounds.txt

Each round does the same exact-rational arithmetic, the kind of work wplus
spends its time on, and prints its start and end on the system-wide
monotonic clock.  ``run.py`` divides a pass's wall time by the mean round
time inside that pass, which takes out the drift of the host's speed.
"""

import sys
import time
from fractions import Fraction


def one_round():
    total = Fraction(0)
    for i in range(1, 8000):
        total += Fraction(1, i % 97 + 1) * Fraction(i, 7)
    return total


def main():
    while True:
        start = time.monotonic()
        one_round()
        print(start, time.monotonic(), flush=True)


if __name__ == "__main__":
    sys.exit(main())
