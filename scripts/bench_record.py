"""Record the benchmark over fixed seeds into BENCH_<short-sha>.json.

    python3 scripts/bench_record.py                      # this checkout
    python3 scripts/bench_record.py --root ../parent --root .

For each seed and workload it runs, in each source checkout given,

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

for the end-to-end metrics, then the same with ``--trace 1`` for the
per-layer ones, which roughly doubles the time a record takes.
A checkout whose ``src/paradd`` holds a ``__pycache__`` is refused
before any run, with the directory named: one-shot processes would read
that bytecode, stale or not, where the other checkout compiles afresh.

With two or more checkouts the runs of one seed, workload and trace
setting follow each other, and the checkout that runs first alternates
from seed to seed, so that a drift of the host's speed falls on both
sides alike.  Each checkout gets ``BENCH_<short-sha>.json`` at its root
(``-dirty`` is appended when ``src`` or ``perfbench`` has uncommitted
changes).  It
holds, per workload and end-to-end metric, the median, quartiles, min,
max and every run's value in seed order; the correct and failed counts;
the same summary of each per-layer metric under ``per_layer``, by
workload; and the provenance block of the first run, less its seed, plus
``src_lines``, the total lines of the checkout's ``src/paradd/*.py``;
``plan_passes``, the passes of each ``paradd verify`` catalog system's
plan, as the checkout builds it; and ``dont_write_bytecode``, this
interpreter's ``sys.flags`` entry.  Set by ``PYTHONDONTWRITEBYTECODE``,
which the child runs inherit, it decides whether each one-shot process
compiles ``paradd`` afresh.
With two checkouts the last one is compared with the first: the change
in ``src_lines`` and in each plan's passes, and per workload and
end-to-end metric of this checkout's ``BENCHMARK.json``, the ratio of
medians, how many seeds it read better in the metric's ``better``
direction, and a mark where the median is worse than the metric's
``bound`` or the first checkout's spread too wide to tell.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("bulk", "oneshot", "verify")


def tag(root: Path) -> str:
    """The checkout's short git sha, ``-dirty`` if its code has changes."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()
    sha = git("rev-parse", "--short", "HEAD")
    return sha + ("-dirty" if git("status", "--porcelain", "--", "src",
                                  "perfbench") else "")


def src_lines(root: Path) -> int:
    """Total lines of the checkout's ``src/paradd/*.py``, as ``wc -l``."""
    return sum(path.read_bytes().count(b"\n")
               for path in (root / "src" / "paradd").glob("*.py"))


# run in the checkout's own source: each catalog system's pass count
_PASSES = """import json
from paradd.adder import build_pipeline
from paradd.cli import _VERIFY_CATALOG, parse_alphabet, parse_base
from paradd.core import make_system
print(json.dumps({f"{b} {a}": len(build_pipeline(make_system(
    parse_base(b), parse_alphabet(a))).plan) for b, a in _VERIFY_CATALOG}))
"""


def plan_passes(root: Path) -> dict:
    """Passes of each ``paradd verify`` catalog system's plan, by "base
    alphabet", as the checkout's ``src`` builds it."""
    proc = subprocess.run(
        [sys.executable, "-c", _PASSES], cwd=root, capture_output=True,
        text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    return json.loads(proc.stdout)


def refuse_bytecode(root: Path) -> None:
    """Exit naming the checkout's ``src/paradd/__pycache__``, if any."""
    cache = root / "src" / "paradd" / "__pycache__"
    if cache.exists():
        raise SystemExit(f"{cache}: remove this bytecode cache before a "
                         f"record; its runs would read it")


def run_once(root: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One run: its last line (the result, whose metrics are end-to-end
    untraced and per-layer traced) and its provenance."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "20", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["details"]["provenance"]
    return result


def summary(values: list) -> dict:
    """Median, quartiles (inclusive method), min, max and the values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "runs": values}


def summaries(results: list) -> dict:
    """Each metric of the first result, summarized over the results."""
    return {name: {"unit": m["unit"], **summary(
        [r["metrics"][name]["value"] for r in results])}
        for name, m in results[0]["metrics"].items()}


def record(root: Path, runs: dict, seeds: list, traced: dict) -> dict:
    """The BENCH document of one checkout from its untraced and traced
    runs[workload]."""
    first = next(iter(runs.values()))[0]
    provenance = {k: v for k, v in first["provenance"].items()
                  if k != "seed"}
    provenance["src_lines"] = src_lines(root)
    provenance["plan_passes"] = plan_passes(root)
    provenance["dont_write_bytecode"] = bool(sys.flags.dont_write_bytecode)
    workloads = {}
    for workload, results in runs.items():
        workloads[workload] = {
            "correct": sum(r["correct"] for r in results),
            "runs": len(results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summaries(results)}
    return {"command": "python3 perfbench/run.py --workload W --seed S "
                       "--seconds 20 --trace T",
            "seeds": seeds, "provenance": provenance,
            "workloads": workloads,
            "per_layer": {w: summaries(results)
                          for w, results in traced.items()}}


def load_spec(path: Path) -> dict:
    """The end-to-end metrics of a ``BENCHMARK.json``, by name: each with
    its ``better`` ("higher" or "lower") and ``bound``."""
    return {m["name"]: m for m in json.loads(path.read_text())["end_to_end"]}


def compare(base: dict, new: dict, spec: dict) -> list:
    """Lines comparing two BENCH documents: their source lines, the plans
    whose passes changed where both record them, then each metric that
    ``spec`` names, seed by seed, in the direction it gives.
    A metric is marked WORSE where its median is worse than the base's by
    more than its bound, a fraction of the base's median, and unresolved
    where the base's interquartile range is wider than that fraction."""
    old, now = (doc["provenance"].get("src_lines") for doc in (base, new))
    lines = [f"src_lines {old} -> {now}"
             + (f"  ({now - old:+d})" if None not in (old, now) else "")]
    old, now = (doc["provenance"].get("plan_passes") for doc in (base, new))
    if old and now:
        lines.append("plan_passes " + (", ".join(
            f"{name} {old.get(name)} -> {n}" for name, n in now.items()
            if old.get(name) != n) or "unchanged"))
    for workload, w in new["workloads"].items():
        for name, m in w["metrics"].items():
            if name not in spec:
                continue
            b = base["workloads"][workload]["metrics"][name]
            sign = 1 if spec[name]["better"] == "higher" else -1
            scale = spec[name]["bound"] * abs(b["median"])
            wins = sum(sign * (x - y) > 0 for x, y in zip(m["runs"],
                                                          b["runs"]))
            lines.append(f"{workload:8s} {name:30s} {b['median']:12.4g} -> "
                         f"{m['median']:12.4g}  x{m['median'] / b['median']:.3f}"
                         f"  better in {wins}/{len(m['runs'])}"
                         f"  (base IQR {b['q1']:.4g}-{b['q3']:.4g})"
                         + ("  WORSE" if sign * (m["median"] - b["median"])
                            < -scale else "")
                         + ("  unresolved" if b["q3"] - b["q1"] > scale
                            else ""))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", action="append", type=Path,
                    help="source checkout to run; repeat to alternate "
                         "(default: this checkout)")
    ap.add_argument("--seeds", type=int, nargs="+",
                    default=list(range(1, 11)))
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    default=list(WORKLOADS))
    args = ap.parse_args(argv)
    roots = [r.resolve() for r in args.root or
             [Path(__file__).resolve().parent.parent]]
    for root in roots:
        refuse_bytecode(root)
    runs = [{root: {w: [] for w in args.workloads} for root in roots}
            for trace in (0, 1)]
    for k, seed in enumerate(args.seeds):
        order = roots if k % 2 == 0 else roots[::-1]
        for workload, trace in itertools.product(args.workloads, (0, 1)):
            for root in order:
                result = run_once(root, workload, seed, trace)
                runs[trace][root][workload].append(result)
                value = result["metrics"].get("verify_instances_per_s")
                print(f"seed {seed} {workload:8s} trace {trace} {root.name}: "
                      f"correct {result['correct']} failed {result['failed']}"
                      + (f" verify {value['value']:.4g}/s" if value else ""),
                      flush=True)
    docs = {}
    for root in roots:
        docs[root] = record(root, runs[0][root], args.seeds, runs[1][root])
        path = root / f"BENCH_{tag(root)}.json"
        path.write_text(json.dumps(docs[root], indent=1) + "\n")
        print(f"wrote {path}")
    if len(roots) > 1:
        spec = load_spec(Path(__file__).resolve().parent.parent
                         / "BENCHMARK.json")
        print("\n".join(compare(docs[roots[0]], docs[roots[-1]], spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
