"""paradd benchmark: bulk, oneshot and verify workloads.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  Every run executes the three phases (see ``phases``): the
named workload's phase at full size, the other two as small fixed
probes, so each end-to-end metric has a value on every workload.  The
amount of work is fixed by ``--seconds`` rather than cut off by a
clock, so runs with the same arguments compare like with like.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` spans are recorded around every layer call, a layer sweep
runs after the phases, and the last line carries the per-layer metrics.
Each run writes its full result (and, when traced, its spans) under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bulk", "oneshot", "verify")
SETUP_REPEATS = 3
TIME_UNITS = {"s", "ms", "us"}


def plans(seconds: int) -> dict:
    """Phase sizes per workload: its own phase native, the others probes."""
    import phases

    native = {
        "bulk": {"rounds": max(1, round(seconds / 12)),
                 "add_len": (10_000, 20_000), "flat_len": 10 ** 6,
                 "flat_rounds": 1},
        "oneshot": {"decks": max(1, round(seconds * 1.6 / len(phases.DECK))),
                    "deck": phases.DECK},
        "verify": {"max_len": 6, "quartic_len": 10, "pairs": 10_000},
    }
    probe = {
        "bulk": {"rounds": 6, "add_len": (64, 512), "flat_len": 300_000,
                 "flat_rounds": 2},
        "oneshot": {"decks": 1, "deck": phases.PROBE_DECK},
        "verify": {"max_len": 4, "quartic_len": 4, "pairs": 500},
    }
    return {w: {p: (native if p == w else probe)[p] for p in WORKLOADS}
            for w in WORKLOADS}


def provenance(run) -> dict:
    import mpmath
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "paradd").glob("*.py")):
        digest.update(path.read_bytes())
    return {"sched_getaffinity": run.cpus, "nproc": len(run.cpus),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "platform": platform.platform(), "git_sha": sha,
            "source_sha256": digest.hexdigest(), "seed": run.seed,
            "workers_requested": run.workers_requested,
            "workers_used": run.wmax}


def scaled(metrics: dict, factor: float) -> dict:
    """Run-level host-speed scaling of per-layer timings and rates."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in TIME_UNITS:
            value = value * factor
        elif unit.endswith("/s"):
            value = value / factor
        out[name] = (value, unit)
    return out


def by_class(run) -> dict:
    """One-shot latency per request class: count, p50 and max in ms."""
    groups = {}
    for cls, clock in run.latencies:
        groups.setdefault(cls, []).append(1e3 * clock.seconds)
    return {cls: {"n": len(v), "p50_ms": statistics.median(v),
                  "max_ms": max(v)} for cls, v in sorted(groups.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "paradd" / "__init__.py").is_file():
        print(f"error: no paradd sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import phases
    from tracing import Tracer

    t_start = time.perf_counter()
    tracer = Tracer(args.trace == 1)
    run = phases.Run(ROOT, args.workload, args.seed, tracer)
    run.pin()
    setup = phases.measure_setup(run, SETUP_REPEATS)
    pipes = {tag: phases.build(*spec)
             for tag, spec in {**phases.BULK, **phases.CATALOG}.items()}
    plan = plans(args.seconds)[args.workload]
    # probes first, so that each runs in the same fresh process state
    # whatever the workload; the workload's own phase last
    order = [w for w in WORKLOADS if w != args.workload] + [args.workload]
    for phase in order:
        label = "native" if phase == args.workload else "probe"
        size = plan[phase]
        if phase == "bulk":
            phases.bulk(run, pipes, phase=label, **size)
        elif phase == "oneshot":
            phases.oneshot(run, phases.requests(run.rng, size["deck"],
                                                size["decks"]), label)
        else:
            phases.verify(run, {t: pipes[t] for t in phases.CATALOG},
                          phase=label, **size)
    phases.known_defects(run)
    e2e = phases.end_to_end(run, setup)
    per_layer = None
    if tracer.enabled:
        raw_layers = layers.metrics(run, pipes, layers.sweep(run, pipes))
        per_layer = scaled(raw_layers, run.speed_factor())
    shown = per_layer if tracer.enabled else e2e

    _, tail_pct = phases.tail([c.seconds for _, c in run.latencies])
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(run),
        "host": {"ref_nominal_s": phases.REF_NOMINAL_S,
                 "ref_median_s": phases.REF_NOMINAL_S / run.speed_factor(),
                 "ref_samples": len(run.refs),
                 "speed_factor": run.speed_factor()},
        "setup_s_samples": [c.seconds for c in setup],
        "oneshot_tail": {"percentile": tail_pct,
                         "samples": len(run.latencies)},
        "oneshot_by_class": by_class(run),
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "end_to_end_raw": {k: v for k, (v, _) in
                           phases.end_to_end(run, setup, raw=True).items()},
        "known_defects": run.known_defects,
        "failures": run.failures[:20],
        "wall_s": time.perf_counter() - t_start,
    }
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer.enabled:
        details["per_layer"] = {k: v for k, (v, _) in per_layer.items()}
        details["per_layer_raw"] = {k: v for k, (v, _) in raw_layers.items()}
        tracer.write(out_dir / f"{stem}-spans.json", {"details": details})
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(details, fh, indent=1)

    for name, (value, unit) in shown.items():
        print(f"{name:58s} {value:16.6g} {unit}")
    open_defects = [k for k, d in run.known_defects.items() if d["open"]]
    print(f"known defects still open: {', '.join(open_defects) or 'none'}")
    print(json.dumps({"details": details}, default=str))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len({f["req"] for f in run.failures}),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
