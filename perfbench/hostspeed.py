"""How fast the host ran during a run: a fixed probe and the steal time.

The benchmark's host is a shared vCPU whose speed drifts with its
neighbours' load: caches, memory bandwidth and SMT siblings are shared,
and the hypervisor takes the vCPU away for a varying share of the time.
The drift comes in episodes of seconds to minutes, so whole runs of the
same code differ by 20% and more. Two corrections take much of it out:

- **Probe.** Before every timed operation, a ``Meter`` times a probe of
  fixed work in the driver thread's CPU time: hashing, copying, an
  interpreter loop, and random reads of a 32 MiB array and a dict (cache
  misses). The benchmark runs all its processes on the same
  ``nproc`` CPUs (``run.pin_cpus``), so with one CPU the probe runs on the
  vCPU the operations run on, and nothing else in the guest adds to its
  CPU time: it moves only with the host. The run's *slowdown* is its
  median probe ÷ ``REFERENCE_S``.
- **Steal.** The hypervisor takes the vCPU away for a share of the time
  that ranges from 1% to 17% between runs here, in bursts. The meter reads
  that *steal* time of the pinned CPUs (``/proc/stat``) before and after
  every operation; within a run, epoch times follow it closely.

An operation's time at the reference speed is (its wall time − the time
stolen during it) ÷ the run's slowdown. Set-up steps lose their stolen
time too (``unstolen``) but are not scaled. The program under test cannot
move the probe or the steal, so a change to it moves these times as much
as the wall times. The run's slowdown, steal share and unscaled medians
are printed beside the metrics.
"""

from __future__ import annotations

import functools
import hashlib
import os
import statistics
import time

import numpy as np

# the probe's median over calm runs of this benchmark (between operations,
# with Ray's processes idle on the same vCPU) on the reference host: four
# shared vCPUs, one granted to the benchmark
REFERENCE_S = 0.019

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


@functools.cache
def _probe_inputs() -> tuple:
    """The probe's fixed inputs, built on first use (about 45 MB)."""
    rng = np.random.default_rng(0)
    array = rng.integers(0, 1 << 30, 4 * 1024 * 1024)              # 32 MiB
    return (
        bytes(range(256)) * 1024,                 # 256 KiB, hashed in L2
        bytearray(8 * 1024 * 1024),               # 8 MiB, copied past L2
        array,
        rng.integers(0, array.size, 400_000),     # random reads of it
        {i * 7919: i for i in range(200_000)},
        [int(k) * 7919 for k in rng.integers(0, 200_000, 5_000)],
    )


def _work(inputs: tuple) -> int:
    hash_buf, copy_buf, array, array_idx, table, table_keys = inputs
    h = hashlib.sha256()
    for _ in range(8):
        h.update(hash_buf)
    copied = sum(len(bytes(copy_buf)) for _ in range(2))
    x = 0
    for i in range(25_000):
        x ^= i * 7
    gathered = int(array[array_idx].sum())
    looked_up = sum(table[k] for k in table_keys)
    return h.digest()[0] + copied + x + gathered + looked_up


def steal_s() -> float:
    """Seconds stolen so far from this process's CPUs, per CPU."""
    cpus = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    total = 0
    with open("/proc/stat") as f:
        for line in f:
            fields = line.split()
            if fields[0] in cpus and len(fields) > 8:
                total += int(fields[8])
    return total / _CLOCK_TICK / len(cpus)


def unstolen(fn):
    """Run ``fn``: ``(output, wall seconds less the seconds stolen)``."""
    s0 = steal_s()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    return out, wall - min(max(steal_s() - s0, 0.0), wall)


class Meter:
    """Probes and steal over the timed operations of a run."""

    def __init__(self):
        self.probes: list = []
        self.wall_s = 0.0
        self.stolen_s = 0.0

    def probe(self) -> float:
        """Run the probe once; record and return its CPU seconds."""
        inputs = _probe_inputs()
        t0 = time.thread_time_ns()
        _work(inputs)
        s = (time.thread_time_ns() - t0) / 1e9
        self.probes.append(s)
        return s

    def timed(self, fn):
        """Probe, then run and time ``fn``.

        Returns ``(output, start_ns, end_ns, stolen_s)``: the seconds the
        hypervisor stole from the pinned CPUs while ``fn`` ran (10 ms
        resolution).
        """
        self.probe()
        s0 = steal_s()
        t0 = time.perf_counter_ns()
        out = fn()
        t1 = time.perf_counter_ns()
        stolen = min(max(steal_s() - s0, 0.0), (t1 - t0) / 1e9)
        self.wall_s += (t1 - t0) / 1e9
        self.stolen_s += stolen
        return out, t0, t1, stolen

    def slowdown(self) -> float:
        """The median probe ÷ the reference (1.0 before any probe)."""
        return statistics.median(self.probes) / REFERENCE_S if self.probes else 1.0

    def summary(self) -> dict:
        return {
            "slowdown": self.slowdown(),
            "steal_share": self.stolen_s / self.wall_s if self.wall_s else 0.0,
            "probes": len(self.probes),
        }
