"""The reference kernels do fixed work, and the gauge pauses and scales a block."""

from __future__ import annotations

import signal
import time

import speed


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_kernels_do_the_same_work_every_call():
    assert [kernel() for kernel in speed.KERNELS] == [kernel() for kernel in speed.KERNELS]


def test_gauge_runs_passes_during_a_block_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    gauge = speed.Gauge()
    with gauge.timed() as span:
        _busy(3 * speed.SLICE_EVERY_S)
    # The timer fires about three times; each pass pauses the block.
    assert 0.0 < span["paused"] < span["seconds"]
    assert span["seconds"] >= 3 * speed.SLICE_EVERY_S
    assert span["cpu"] > 0.0
    assert gauge.scale() > 0.0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_gauge_without_interleaving_runs_no_pass_during_the_block():
    gauge = speed.Gauge()
    with gauge.timed(interleave=False) as span:
        _busy(2 * speed.SLICE_EVERY_S)
    assert span["paused"] == 0.0


def test_scale_is_reference_time_over_mean_pass_time():
    gauge = speed.Gauge()
    with gauge.timed(interleave=False):
        pass
    # Around an empty block: the passes before it and the passes after it.
    assert len(gauge._passes) == 2 * speed.PASSES_AROUND
    mean = sum(gauge._passes) / len(gauge._passes)
    assert abs(gauge.scale() - speed.REFERENCE_S / mean) < 1e-12
