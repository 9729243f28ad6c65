"""Time public add()/subtract() on 10**6-digit tuples against the ripple adder.

    python3 scripts/time_adds.py                 # this checkout
    python3 scripts/time_adds.py --root ../parent

Imports ``paradd`` from the checkout's ``src``.  On -2 {0..2}, 3/2 {0..4}
(add) and -2 {-1..1} (subtract) it draws two operands of ``--digits``
digits from ``random.Random(5)``, makes one untimed call, then prints the
median and range of 7 timed calls, and the best of 3 calls of
``bench.ripple_digit_sum`` on the same digitwise sum.  Run two checkouts
in turn, a few times each, to compare them.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

SYSTEMS = (("-2", "0..2", "add"), ("3/2", "0..4", "add"),
           ("-2", "-1..1", "subtract"))


def timings(fn, calls: int) -> list:
    """Seconds of each of ``calls`` calls of ``fn``."""
    out = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        out.append(time.perf_counter() - start)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--digits", type=int, default=10 ** 6)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from paradd import adder
    from paradd.bench import ripple_digit_sum
    from paradd.cli import parse_alphabet, parse_base
    from paradd.core import DigitString, make_system

    for base, alphabet, name in SYSTEMS:
        system = make_system(parse_base(base), parse_alphabet(alphabet))
        pipe, al, op = adder.build_pipeline(system), system.alphabet, \
            getattr(adder, name)
        rng = random.Random(5)
        x, y = (DigitString(tuple(rng.randint(al.m, al.M)
                                  for _ in range(args.digits)))
                for _ in range(2))
        op(x, y, pipe)
        ms = [t * 1e3 for t in timings(lambda: op(x, y, pipe), 7)]
        sign = -1 if name == "subtract" else 1
        z = [a + sign * b for a, b in zip(x.digits, y.digits)]
        ripple = min(timings(lambda: ripple_digit_sum(z, system.base), 3))
        print(f"{base} {{{alphabet}}} {name}: median "
              f"{statistics.median(ms):.1f} ms (range {min(ms):.1f}-"
              f"{max(ms):.1f}), ripple_digit_sum best {ripple * 1e3:.1f} ms",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
