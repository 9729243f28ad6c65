"""scripts/bench_record.py's comparison of two BENCH documents."""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_record", _ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _doc(src_lines, **metrics):
    # one workload; each metric from its runs, summarized as recorded
    return {"provenance": {"src_lines": src_lines},
            "workloads": {"w": {"metrics": {
                name: {"unit": "x", **bench_record.summary(runs)}
                for name, runs in metrics.items()}}}}


def test_compare_reads_direction_and_bound(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "cost_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wide_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]}))
    spec = bench_record.load_spec(path)
    base = _doc(100, rate=[100, 100, 100, 100], cost_s=[10, 10, 10, 10],
                wide_s=[1, 2, 3, 4], unlisted=[1, 1, 1, 1])
    new = _doc(97, rate=[70, 74, 110, 72], cost_s=[9, 9, 11, 9],
               wide_s=[4, 5, 6, 7], unlisted=[9, 9, 9, 9])
    lines = bench_record.compare(base, new, spec)
    assert lines[0] == "src_lines 100 -> 97  (-3)"
    rate, cost, wide = lines[1:]
    # a higher rate is better: 1 of 4 seeds, and the median fell by 27 %
    assert rate.split()[:2] == ["w", "rate"]
    assert "better in 1/4" in rate and rate.endswith("  WORSE")
    # a lower cost is better: 3 of 4 seeds, within its bound
    assert "better in 3/4" in cost and "WORSE" not in cost
    assert "unresolved" not in cost
    # the base's quartiles 1.75-3.25 span 60 % of its median 2.5
    assert "better in 0/4" in wide
    assert wide.endswith("  WORSE  unresolved")
    # a metric BENCHMARK.json does not name is not compared
    assert not any("unlisted" in line for line in lines)



def test_record_writes_each_catalog_plan_pass_count():
    # the trimmed -1+i and 2i plans show in the provenance
    run = {"provenance": {"seed": 1, "host": "h"}, "correct": 1,
           "attempted": 1, "failed": 0,
           "metrics": {"rate": {"unit": "1/s", "value": 2.0}}}
    doc = bench_record.record(_ROOT, {"w": [run]}, [1], {})
    provenance = doc["provenance"]
    assert provenance["src_lines"] == bench_record.src_lines(_ROOT)
    assert provenance["plan_passes"] == {
        "-2 0..2": 2, "3/2 0..4": 4, "-3/2 0..4": 4, "pisot-:3 0..2": 2,
        "pisot+:2 0..3": 3, "root:2,2,+ 0..2": 2, "-1+i 0..4": 2,
        "2i 0..4": 2, "isqrt2 0..2": 2, "2 0..2": 2}
    assert "seed" not in provenance and provenance["host"] == "h"


def test_compare_names_the_plans_whose_passes_changed():
    base, new = _doc(100, rate=[1, 1]), _doc(98, rate=[1, 1])
    base["provenance"]["plan_passes"] = {"-1+i 0..4": 4, "-2 0..2": 2}
    new["provenance"]["plan_passes"] = {"-1+i 0..4": 2, "-2 0..2": 2}
    assert bench_record.compare(base, new, {})[1] == \
        "plan_passes -1+i 0..4 4 -> 2"
    new["provenance"]["plan_passes"] = base["provenance"]["plan_passes"]
    assert bench_record.compare(base, new, {})[1] == "plan_passes unchanged"
    # a document without the counts, as recorded before them, adds no line
    del base["provenance"]["plan_passes"]
    assert len(bench_record.compare(base, new, {})) == 1


def test_a_checkout_with_bytecode_is_refused_before_any_run(tmp_path,
                                                           monkeypatch):
    def run_once(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_record, "run_once", run_once)
    (tmp_path / "src" / "paradd").mkdir(parents=True)
    cache = tmp_path / "src" / "paradd" / "__pycache__"
    cache.mkdir()
    (cache / "bench.cpython-311.pyc").write_bytes(b"")
    with pytest.raises(SystemExit) as err:
        bench_record.main(["--root", str(tmp_path), "--seeds", "1"])
    assert str(cache) in str(err.value)
    cache.joinpath("bench.cpython-311.pyc").unlink()
    cache.rmdir()
    bench_record.refuse_bytecode(tmp_path)


def test_main_records_per_layer_medians(tmp_path, monkeypatch):
    # two checkouts, two seeds: each seed's untraced and traced run per
    # checkout, alternated, and the traced metrics' medians per workload
    calls = []

    def run_once(root, workload, seed, trace=0):
        calls.append((root.name, workload, seed, trace))
        name = "layer.rate" if trace else "add_digits_per_s"
        value = 10 * seed + trace + (root.name == "b")
        return {"correct": True, "attempted": 1, "failed": 0,
                "provenance": {"seed": seed},
                "metrics": {name: {"unit": "1/s", "value": value}}}

    monkeypatch.setattr(bench_record, "run_once", run_once)
    monkeypatch.setattr(bench_record, "tag", lambda root: root.name)
    monkeypatch.setattr(bench_record, "plan_passes", lambda root: {})
    monkeypatch.setattr(bench_record, "load_spec", lambda path: {})
    roots = [tmp_path / "a", tmp_path / "b"]
    for root in roots:
        root.mkdir()
    argv = ["--root", str(roots[0]), "--root", str(roots[1]),
            "--seeds", "1", "2", "--workloads", "bulk"]
    assert bench_record.main(argv) == 0
    assert calls == [("a", "bulk", 1, 0), ("b", "bulk", 1, 0),
                     ("a", "bulk", 1, 1), ("b", "bulk", 1, 1),
                     ("b", "bulk", 2, 0), ("a", "bulk", 2, 0),
                     ("b", "bulk", 2, 1), ("a", "bulk", 2, 1)]
    for root, extra in zip(roots, (0, 1)):
        doc = json.loads((root / f"BENCH_{root.name}.json").read_text())
        assert doc["command"].endswith("--trace T")
        assert list(doc["workloads"]["bulk"]["metrics"]) == \
            ["add_digits_per_s"]
        layer = doc["per_layer"]["bulk"]["layer.rate"]
        assert layer["unit"] == "1/s" and layer["runs"] == \
            [11 + extra, 21 + extra]
        assert layer["median"] == 16 + extra
