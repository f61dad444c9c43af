"""Tests of the benchmark itself.

    python -m pytest perfbench/test_smoke.py -q

The smoke test runs every workload untraced and traced at toy sizes in
about a minute; the other tests check the statistics and the span
attribution on hand-made inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from perfbench import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_emits_every_metric_with_its_unit():
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    last = json.loads(p.stdout.strip().splitlines()[-1])
    assert last == {"smoke_ok": True, "mismatches": []}, p.stdout[-2000:]
    assert p.returncode == 0


def test_self_time_goes_to_the_latest_started_span():
    s = 1_000_000_000
    spans = [
        ["tailer", 0, 10 * s, {}],        # driver: the whole poll
        ["finalize", 2 * s, 6 * s, {"rows_in": 5}],   # worker
        ["sha256", 3 * s, 4 * s, {"rows": 2}],      # nested in finalize
        [tracer.FLOOR, 4 * s, 5 * s, {}],           # removed from the wall
        ["write", 12 * s, 13 * s, {"files": 1}],    # outside any window
    ]
    att = tracer.attribute(spans, [(0, 11 * s)])
    assert att["self_s"] == {"tailer": 6.0, "finalize": 2.0, "sha256": 1.0}
    assert att["unattributed_s"] == 1.0
    assert att["wall_s"] == 10.0
    assert att["counts"] == {"finalize": {"rows_in": 5}, "sha256": {"rows": 2}}


def test_hi_percentile_keeps_ten_samples_beyond_it():
    from perfbench import run

    assert run.hi_percentile(list(range(1, 101))) == (90, 90.0, 100)
    assert run.hi_percentile([3, 1, 2]) == (2, 50.0, 3)


def test_host_speed_meter():
    from perfbench import hostspeed

    m = hostspeed.Meter()
    assert m.slowdown() == 1.0
    out, t0, t1, stolen = m.timed(lambda: 42)
    assert out == 42 and t1 >= t0 and 0.0 <= stolen <= (t1 - t0) / 1e9
    m.probes = [hostspeed.REFERENCE_S * 2] * 3 + [hostspeed.REFERENCE_S]
    m.wall_s, m.stolen_s = 10.0, 1.0
    assert m.slowdown() == 2.0
    assert m.summary() == {"slowdown": 2.0, "steal_share": 0.1, "probes": 4}
