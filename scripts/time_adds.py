"""Time public add()/subtract() on 10**6-digit tuples against the ripple adder.

    python3 scripts/time_adds.py                 # this checkout
    python3 scripts/time_adds.py --root ../parent

Imports ``paradd`` from the checkout's ``src``.  On -2 {0..2}, 3/2 {0..4}
(add) and -2 {-1..1} (subtract) it draws two operands of ``--digits``
digits from ``random.Random(5)``, makes one untimed call, then prints the
median and range of 7 timed calls, and the best of 3 calls of
``bench.ripple_digit_sum`` on the same digitwise sum.  On the two add
systems it also times, alike at one worker, the layers below: the flat
path ``bench.run_pipeline_flat`` on the digitwise sum as a list, that
call with its output copied into a list (what a caller who needs a list
still pays), and ``kernel.run_plan`` alone on the same digits as an int8
array.  Run two checkouts in turn, a few times each, to compare them.
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


def report(label: str, fn) -> str:
    """``label``: the median and range of 7 calls of ``fn``, in ms, after
    one untimed call."""
    fn()
    ms = [t * 1e3 for t in timings(fn, 7)]
    return (f"{label}: median {statistics.median(ms):.1f} ms "
            f"(range {min(ms):.1f}-{max(ms):.1f})")


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
    import numpy as np
    from paradd import adder, kernel
    from paradd.bench import ripple_digit_sum, run_pipeline_flat
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
        line = report(f"{base} {{{alphabet}}} {name}", lambda: op(x, y, pipe))
        sign = -1 if name == "subtract" else 1
        z = [a + sign * b for a, b in zip(x.digits, y.digits)]
        ripple = min(timings(lambda: ripple_digit_sum(z, system.base), 3))
        print(f"{line}, ripple_digit_sum best {ripple * 1e3:.1f} ms",
              flush=True)
        if name == "add":
            Z = np.array(z, np.int8)
            print("  " + report("run_pipeline_flat, list, 1 worker",
                                lambda: run_pipeline_flat(pipe, z, 1)))
            print("  " + report("list(run_pipeline_flat), list, 1 worker",
                                lambda: list(run_pipeline_flat(pipe, z, 1))))
            print("  " + report("run_plan, int8 array",
                                lambda: kernel.run_plan(pipe, Z)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
