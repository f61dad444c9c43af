"""Every store writer finishes on a 1-CPU Ray session.

A writer whose tasks or actors reserve more CPU than the session has left
starves the epoch's other tasks: on one CPU the epoch then never finishes,
with no error. The shared test session has 4 CPUs and cannot show this,
so the writers run in a subprocess with its own ``ray.init(num_cpus=1)``
under a timeout: the three apply paths, then ``merge_into``,
``repartition_snapshot`` and ``purge_keys`` over the same store, each
checked against a pandas oracle and ``verify_deep``, then a staged epoch
of the same events loaded from Parquet (``sources.io.read_parquet``, one
file per schema version, as ``jobs replay`` feeds it). One CPU is one
merge group, so these small epochs run their exchange in process and the
one-file reads decode in the caller, with no call to Ray's read; a
second leg forces the remote tasks and Ray's read
(``sizing.INLINE_BYTES = -1``).
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LEGS = ("apply_epoch", "staged", "two_level", "merge_into",
        "repartition_snapshot", "purge_keys", "read_parquet")

SCRIPT = textwrap.dedent(
    """
    import hashlib
    import sys

    import pandas as pd
    import ray
    import ray.data as rd

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", object_store_memory=200 * 1024**2)
    rd.DataContext.get_current().enable_progress_bars = False

    from arlas_proc_ray.cdc import sizing, staged
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.events import (
        ChangelogConfig,
        generate_changelog_tables,
    )
    from arlas_proc_ray.cdc.merge import merge_into
    from arlas_proc_ray.cdc.oracle import oracle_final_state
    from arlas_proc_ray.model import DataModel

    if sys.argv[2] == "remote":
        sizing.INLINE_BYTES = -1
    inline_runs = []
    run_inline = staged._inline_exchange
    staged._inline_exchange = lambda *a: inline_runs.append(1) or run_inline(*a)

    tables = generate_changelog_tables(
        ChangelogConfig(num_events=2000, num_keys=200, seed=51)
    )
    exp = oracle_final_state(tables).to_pandas()
    dm = DataModel(num_partitions=4)

    def check(eng, want, name):
        pd.testing.assert_frame_equal(
            eng.final_state().to_pandas(), want.reset_index(drop=True)
        )
        deep = eng.store.verify_deep(recompute_hashes=True)
        assert deep["ok"], deep["failed"]
        print("ok", name, flush=True)

    paths = {
        "apply_epoch": lambda e, ds: e.apply_epoch(ds, 1),
        "staged": lambda e, ds: e.apply_epoch_staged(ds, 1),
        "two_level": lambda e, ds: staged.staged_apply_epoch_two_level(
            e, ds.materialize(), 1
        ),
    }
    for name, apply in paths.items():
        eng = CdcEngine(f"{sys.argv[1]}/{name}", dm)
        apply(eng, rd.from_arrow(tables))
        check(eng, exp, name)

    # merge_into: new content for every third key, as upserts above the
    # store's watermark
    src = exp.iloc[::3][["repo", "path", "commit", "language", "content"]]
    src = src.assign(content="M:" + src["path"],
                     lsn=range(10**6, 10**6 + len(src)))
    merge_into(eng, rd.from_pandas(src.reset_index(drop=True)), 2)
    want = exp.copy()
    want.loc[src.index, "content"] = src["content"]
    want.loc[src.index, "content_size"] = src["content"].str.len()
    want.loc[src.index, "content_sha256"] = [
        hashlib.sha256(c.encode()).hexdigest() for c in src["content"]
    ]
    want.loc[src.index, "last_lsn"] = src["lsn"]
    check(eng, want, "merge_into")

    eng.repartition_snapshot(8, epoch=3)
    eng = CdcEngine(eng.store.root, DataModel(num_partitions=8))
    check(eng, want, "repartition_snapshot")

    victims = want.iloc[::5][["repo", "path"]]
    eng.purge_keys(victims, epoch=4)
    check(eng, want.drop(index=victims.index), "purge_keys")

    import pyarrow.parquet as pq
    from arlas_proc_ray.sources import io

    ray_reads = []
    ray_read = io.rd.read_parquet
    io.rd.read_parquet = lambda *a, **k: ray_reads.append(a) or ray_read(*a, **k)
    files = [f"{sys.argv[1]}/events-v{i}.parquet" for i in range(len(tables))]
    for f, t in zip(files, tables):
        pq.write_table(t, f)
    ds = io.read_parquet(files[0])
    for f in files[1:]:
        ds = ds.union(io.read_parquet(f))
    eng = CdcEngine(f"{sys.argv[1]}/read_parquet", dm)
    eng.apply_epoch_staged(ds, 1)
    check(eng, exp, "read_parquet")
    print("inline", len(inline_runs), "ray_reads", len(ray_reads))
    ray.shutdown()
    """
)


def test_every_apply_path_finishes_on_one_cpu(tmp_path):
    env = {**os.environ, "PYTHONPATH": ROOT}
    for leg in ("inline", "remote"):
        proc = subprocess.Popen(
            [sys.executable, "-c", SCRIPT, str(tmp_path / leg), leg],
            cwd=ROOT, env=env, text=True, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
            pytest.fail(f"{leg}: epoch unfinished after 120 s on 1 CPU; "
                        f"done: {out!r}")
        assert proc.returncode == 0, (leg, err[-2000:])
        words = out.split()
        assert words[:-4] == [w for name in LEGS for w in ("ok", name)], (
            leg, out)
        # every one-level epoch in process, or none: apply_epoch, staged,
        # merge_into, repartition_snapshot, purge_keys, read_parquet; and
        # the two one-file Parquet reads in process, or both by Ray's read
        assert words[-4:] == (["inline", "6", "ray_reads", "0"]
                              if leg == "inline" else
                              ["inline", "0", "ray_reads", "2"]), out
