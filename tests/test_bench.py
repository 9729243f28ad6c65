"""Threaded flat runner: digit identity with the sequential run, worker caps."""

import os
import random

import numpy as np
import pytest

from paradd import bench, kernel
from paradd.adder import build_pipeline
from paradd.core import (
    Alphabet,
    integer_base,
    make_system,
    negative_integer_base,
    negative_rational_base,
    pisot_minus_base,
    rational_base,
)
from paradd.errors import LimitExceededError, WorkerCountError

# one system per plan kind: top passes only; top and bottom passes (two
# systems); map passes with window (5, 5)
_SYSTEMS = [
    (negative_integer_base(2), Alphabet(0, 2)),
    (negative_integer_base(2), Alphabet(-1, 1)),
    (negative_rational_base(3, 2), Alphabet(-2, 2)),
    (pisot_minus_base(3), Alphabet(0, 2)),
]


@pytest.fixture(params=_SYSTEMS, ids=lambda s: f"{s[0].describe()} {s[1]}")
def pipeline(request):
    return build_pipeline(make_system(*request.param))


def _digit_sums(pipeline, length, seed=3):
    lo, hi = pipeline.input_range
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for _ in range(length)]


def test_slices_equal_sequential_run(pipeline):
    """Every cut of the output, computed from its slice plus halo alone."""
    t, r = pipeline.effective_window
    halo = t + r
    for length in (1, 2, halo - 1, halo, halo + 1, 2 * halo + 1, 5 * halo):
        z = _digit_sums(pipeline, length)
        expected = bench.run_pipeline_flat(pipeline, z, workers=1)
        Z = np.array(z, dtype=np.int32)
        for shards in range(1, 7):
            cuts = kernel.shard_cuts(length + halo, shards)
            got = [d for cut in cuts
                   for d in kernel.plan_slice(pipeline, Z, cut).tolist()]
            assert got == list(expected), (length, shards)


def test_forked_run_equals_sequential_run(pipeline):
    """The threaded run of a long input equals the one-thread run."""
    length = 2 * bench.MIN_SHARD_DIGITS + 3
    z = _digit_sums(pipeline, length)
    assert bench.worker_count(8, length) == min(
        2, len(os.sched_getaffinity(0)))
    assert bench.run_pipeline_flat(pipeline, z, workers=8) == \
        bench.run_pipeline_flat(pipeline, z, workers=1)


def test_worker_count_caps_without_starting_processes(monkeypatch):
    class NoPool:
        def submit(self, *args, **kwargs):
            raise AssertionError("work was submitted to the thread pool")

    monkeypatch.setattr(kernel, "_POOL", NoPool())
    cpus = len(os.sched_getaffinity(0))
    assert bench.worker_count(10 ** 9, 10 ** 12) == cpus
    assert bench.worker_count(10 ** 9, bench.MIN_SHARD_DIGITS - 1) == 1
    assert bench.worker_count(1, 10 ** 12) == 1
    for bad in (0, -1):
        with pytest.raises(WorkerCountError):
            bench.worker_count(bad, 10 ** 6)
    pipe = build_pipeline(make_system(*_SYSTEMS[0]))
    with pytest.raises(WorkerCountError):
        bench.run_benchmark(pipe, length=10 ** 6, worker_counts=(1, 0))
    z = _digit_sums(pipe, bench.MIN_SHARD_DIGITS + 1)
    assert bench.run_pipeline_flat(pipe, z, workers=8) == \
        bench.run_pipeline_flat(pipe, z, workers=1)


@pytest.mark.parametrize("system", [
    (negative_integer_base(2), Alphabet(0, 2)),
    (rational_base(3, 2), Alphabet(0, 4)),
], ids=lambda s: s[0].describe())
def test_ripple_check_sees_one_changed_digit(monkeypatch, system):
    pipe = build_pipeline(make_system(*system))
    assert bench.run_benchmark(pipe, length=5_000,
                               worker_counts=(1,)).ripple_value_match
    flat = bench.run_pipeline_flat

    def one_digit_off(pipeline, digits, workers=1):
        out = flat(pipeline, digits, workers)
        out[len(out) // 2] += 1
        return out

    monkeypatch.setattr(bench, "run_pipeline_flat", one_digit_off)
    result = bench.run_benchmark(pipe, length=5_000, worker_counts=(1,))
    assert result.outputs_identical
    assert result.ripple_value_match is False and not result.passed


def test_ripple_tail_keeps_its_trailing_zeros():
    # the final carry 10 expands to "1 0", normalized to 1 at exponent 1
    assert bench.ripple_digit_sum([100], integer_base(10)) == [1, 0, 0]
    assert bench.ripple_digit_sum([], integer_base(10)) == []
    assert bench.ripple_digit_sum([3, 0], negative_integer_base(2)) == [
        1, 1, 1, 0]


def test_ripple_tail_may_pass_64_digits():
    # in base 101/100 the carry out of 50 sums of 400 expands to 117
    # digits, and the benchmark's ripple check agrees with the plan
    base = rational_base(101, 100)
    assert len(bench.ripple_digit_sum([400] * 50, base)) == 50 + 117
    pipe = build_pipeline(make_system(base, Alphabet(0, 200)))
    assert bench.run_benchmark(pipe, length=1_000,
                               worker_counts=(1,)).ripple_value_match


class _Reached(Exception):
    pass


@pytest.mark.parametrize("extra, ok", [(0, True), (1, False)])
def test_digit_pass_cap(monkeypatch, extra, ok):
    # 101/100 {0..200} needs all its 200 passes: 5 * 10**5 digits sit at
    # the cap
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(kernel, "run_plan", reached)
    pipe = build_pipeline(make_system(rational_base(101, 100),
                                      Alphabet(0, 200)))
    passes = len(pipe.plan)
    assert passes == 200
    length = bench.MAX_DIGIT_PASSES // passes + extra
    assert (length - extra) * passes == bench.MAX_DIGIT_PASSES
    assert bench.MIN_LENGTH <= length <= bench.MAX_LENGTH
    with pytest.raises(_Reached if ok else LimitExceededError) as err:
        bench.run_benchmark(pipe, length=length)
    if not ok:
        assert err.value.details == {"digit_passes": length * passes,
                                     "limit": bench.MAX_DIGIT_PASSES}
