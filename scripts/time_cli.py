"""Time one-shot ``paradd`` processes per request class of the oneshot deck.

    python3 scripts/time_cli.py                      # this checkout
    python3 scripts/time_cli.py --root . --root ../parent

For each request class of ``perfbench/phases.py``'s ``DECK`` it draws one
request from ``random.Random(1)`` and runs ``python -m paradd.cli`` on it
11 times per checkout, alternating the checkouts, with the
checkout's ``src`` on ``PYTHONPATH`` and the checkout as working directory,
as the benchmark does.  It prints, per class and checkout, the median wall
time, the median child CPU time (user plus system, from
``resource.RUSAGE_CHILDREN``) and the ``paradd`` submodules one extra,
untimed run of the request loads; and, per checkout, whether the child
has ``sys.flags.dont_write_bytecode`` set.  Without it, and with a
``__pycache__`` left in the checkout, a process reads cached bytecode
instead of compiling, and the times show less of the import.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 11  # timed processes per class and checkout
SEED = 1

# Runs the CLI as `python -m paradd.cli` does, then prints the paradd
# submodules loaded and the bytecode flag on the real stdout.
PROBE = """
import contextlib, io, json, runpy, sys
sys.argv = ["paradd"] + json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("paradd.cli", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
print(json.dumps([sorted(m[7:] for m in sys.modules
                         if m.startswith("paradd.")),
                  sys.flags.dont_write_bytecode]))
"""


def deck_requests(root: Path, seed: int) -> dict:
    """One request per class of the oneshot deck: class -> argv."""
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import phases

    out = {}
    for cls in dict.fromkeys(phases.DECK):
        # the first request of each class; pisot magnitudes mid-range
        out[cls] = phases._request(random.Random(seed), cls, 0, 15.0)["argv"]
    return out


def timed(root: Path, argv: list) -> tuple:
    """(wall s, child CPU s) of one `python -m paradd.cli` process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "paradd.cli", *argv], env=env,
                   cwd=root, capture_output=True, check=False)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return wall, (after.ru_utime - before.ru_utime
                  + after.ru_stime - before.ru_stime)


def probe(root: Path, argv: list) -> tuple:
    """(paradd submodules loaded, child dont_write_bytecode) for ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          env=env, cwd=root, capture_output=True, text=True,
                          check=True)
    return tuple(json.loads(proc.stdout))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path, action="append",
                    help="checkout to time; repeat to alternate several")
    args = ap.parse_args(argv)
    roots = [r.resolve() for r in args.root
             or [Path(__file__).resolve().parent.parent]]
    flags = {}
    print(f"{'class':11s} {'checkout':30s} {'wall ms':>8s} {'cpu ms':>8s}  "
          "modules")
    for cls, req in deck_requests(roots[0], SEED).items():
        samples = {r: [] for r in roots}
        for i in range(RUNS):
            # alternate which checkout goes first
            for root in roots[i % 2:] + roots[:i % 2]:
                samples[root].append(timed(root, req))
        for root in roots:
            modules, flags[root] = probe(root, req)
            wall = statistics.median(w for w, _ in samples[root]) * 1e3
            cpu = statistics.median(c for _, c in samples[root]) * 1e3
            print(f"{cls:11s} {str(root)[-30:]:30s} {wall:8.1f} {cpu:8.1f}  "
                  f"{' '.join(modules)}", flush=True)
    for root, flag in flags.items():
        print(f"dont_write_bytecode in {root}: {bool(flag)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
