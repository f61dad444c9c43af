"""Every apply path finishes an epoch on a 1-CPU Ray session.

A long-lived actor that reserves CPU starves the epoch's tasks when the
session has one CPU: the epoch then never finishes. The shared test
session has 4 CPUs and cannot show this, so the epochs run in a
subprocess with its own ``ray.init(num_cpus=1)`` under a timeout.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = textwrap.dedent(
    """
    import sys

    import pandas as pd
    import ray
    import ray.data as rd

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", object_store_memory=200 * 1024**2)
    rd.DataContext.get_current().enable_progress_bars = False

    from arlas_proc_ray.cdc.actors import StreamingCdcEngine
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.events import (
        ChangelogConfig,
        generate_changelog_tables,
    )
    from arlas_proc_ray.cdc.oracle import oracle_final_state
    from arlas_proc_ray.model import DataModel

    tables = generate_changelog_tables(
        ChangelogConfig(num_events=2000, num_keys=200, seed=51)
    )
    exp = oracle_final_state(tables).to_pandas()
    dm = DataModel(num_partitions=4)
    paths = {
        "apply_epoch": lambda e, ds: e.apply_epoch(ds, 1),
        "staged": lambda e, ds: e.apply_epoch_staged(ds, 1, two_level=False),
        "two_level": lambda e, ds: e.apply_epoch_staged(ds, 1, two_level=True),
    }
    for name, apply in paths.items():
        eng = CdcEngine(f"{sys.argv[1]}/{name}", dm)
        apply(eng, rd.from_arrow(tables))
        pd.testing.assert_frame_equal(eng.final_state().to_pandas(), exp)
        print("ok", name, flush=True)
    eng = StreamingCdcEngine(f"{sys.argv[1]}/actors", dm)
    eng.apply_epoch(rd.from_arrow(tables), 1)
    pd.testing.assert_frame_equal(eng.final_state().to_pandas(), exp)
    eng.shutdown()
    print("ok actors", flush=True)
    ray.shutdown()
    """
)


def test_every_apply_path_finishes_on_one_cpu(tmp_path):
    env = {**os.environ, "PYTHONPATH": ROOT}
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=ROOT, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        pytest.fail(f"epoch unfinished after 120 s on 1 CPU; done: {out!r}")
    assert proc.returncode == 0, err[-2000:]
    assert "ok actors" in out, out
