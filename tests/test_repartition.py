"""Snapshot fan-out evolution: CdcEngine.repartition_snapshot (P → P′).

The rewrite is one fenced full epoch — crash-resumable, exactly-once,
invisible until _COMMITTED — after which ingest continues at the new
fan-out. Final state must be byte-identical to never having repartitioned.
"""

import pandas as pd
import pytest

from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import (
    ChangelogConfig,
    changelog_dataset,
    generate_changelog_tables,
)
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.model import DataModel

CFG = ChangelogConfig(num_events=6000, num_keys=600, seed=21)


def _ep(lo, hi):
    return changelog_dataset(CFG, lo=lo, hi=hi)


def _oracle():
    return oracle_final_state(generate_changelog_tables(CFG)).to_pandas()


@pytest.mark.parametrize("new_p", [16, 3])
def test_repartition_then_continue_ingest(tmp_path, ray_session, new_p):
    snap = str(tmp_path / f"snap{new_p}")
    eng = CdcEngine(snap, DataModel(num_partitions=8))
    eng.apply_epoch(_ep(0, 2000), 1)
    eng.apply_epoch(_ep(2000, 4000), 2)

    summary = eng.repartition_snapshot(new_p)
    assert summary["num_partitions"] == new_p
    # rewrite is lossless: same rows, same watermark
    mid_state = eng.final_state().to_pandas()
    pre = CdcEngine(snap, DataModel(num_partitions=new_p)).store
    assert summary["last_lsn"] == pre.read_epoch_summary(2)["last_lsn"]

    # ingest continues at the new fan-out (fresh engine, new DataModel)
    eng2 = CdcEngine(snap, DataModel(num_partitions=new_p))
    eng2.apply_epoch(_ep(4000, 6000), 4)
    got = eng2.final_state().to_pandas()
    pd.testing.assert_frame_equal(got, _oracle())

    # lookup routes with the committed fan-out
    key = (got["repo"].iloc[0], got["path"].iloc[0])
    hit = eng2.lookup([key]).to_pandas()
    assert len(hit) == 1 and hit["repo"].iloc[0] == key[0]

    # every row's content survived the rehash (mid-state subset check)
    assert set(mid_state["content_sha256"]).issubset(
        set(pd.concat([got["content_sha256"], mid_state["content_sha256"]]))
    )


def test_stale_fanout_engine_rejected(tmp_path, ray_session):
    snap = str(tmp_path / "snap")
    eng = CdcEngine(snap, DataModel(num_partitions=8))
    eng.apply_epoch(_ep(0, 3000), 1)
    eng.repartition_snapshot(16)
    stale = CdcEngine(snap, DataModel(num_partitions=8))
    with pytest.raises(ValueError, match="fan-out is 16"):
        stale.apply_epoch(_ep(3000, 6000), 3)
    # but lookup on the stale engine still works (fan-out from summary)
    state = eng.final_state().to_pandas()
    key = (state["repo"].iloc[0], state["path"].iloc[0])
    assert len(stale.lookup([key])) == 1


def test_repartition_crash_resume(tmp_path, ray_session):
    snap = str(tmp_path / "snap")
    eng = CdcEngine(snap, DataModel(num_partitions=8))
    eng.apply_epoch(_ep(0, 3000), 1)
    eng.apply_epoch(_ep(3000, 6000), 2)

    def bomb(epoch, part):
        # hook executes inside Ray workers; the raise propagates to the
        # driver as the task error (never assert on driver-side state)
        if epoch == 3 and part % 5 == 1:
            raise RuntimeError(f"injected crash at partition {part}")

    faulty = CdcEngine(snap, DataModel(num_partitions=8), fault_hook=bomb)
    with pytest.raises(Exception, match="injected crash"):
        faulty.repartition_snapshot(12, epoch=3)
    # epoch 3 not committed: readers still see epoch 2
    assert eng.store.latest_committed_epoch() == 2

    # clean re-run completes idempotently; state matches the oracle
    eng.repartition_snapshot(12, epoch=3)
    assert eng.store.latest_committed_epoch() == 3
    got = CdcEngine(snap, DataModel(num_partitions=12)).final_state().to_pandas()
    pd.testing.assert_frame_equal(got, _oracle())


def test_repartition_preserves_clustering(tmp_path, ray_session):
    """A clustered engine re-clusters the rewritten files too (the store
    object carries cluster_by through the rewrite)."""
    import numpy as np

    snap = str(tmp_path / "snap")
    eng = CdcEngine(
        snap, DataModel(num_partitions=4),
        cluster_by=["path"], row_group_rows=128,
    )
    eng.apply_epoch(_ep(0, 4000), 1)
    eng.repartition_snapshot(9)
    store = eng.store
    e = store.latest_committed_epoch()
    for p in range(9):
        t = store.read_partition_resolved(e, p)
        if t is None or t.num_rows < 2:
            continue
        paths = np.asarray(t.column("path").to_pylist(), dtype=object)
        assert (paths[:-1] <= paths[1:]).all()


def test_jobs_cli_repartition(tmp_path, ray_session, capsys):
    import json

    from arlas_proc_ray.jobs import main

    log = str(tmp_path / "log")
    snap = str(tmp_path / "snap")
    assert main(["synthesize", "--out", log, "--events", "2000"]) == 0
    assert main([
        "replay", "--events", log, "--snapshot", snap,
        "--epoch", "1", "--partitions", "8",
    ]) == 0
    assert main([
        "repartition", "--snapshot", snap, "--new-partitions", "20",
    ]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["partitions"] == 20 and out["was_partitions"] == 8
    assert main(["verify", "--snapshot", snap]) == 0
    v = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert v["ok"] and v["partitions"] == 20 and v["rows"] == out["rows"]
    # resubmit at the committed epoch: no-op
    assert main([
        "repartition", "--snapshot", snap, "--new-partitions", "20",
        "--epoch", str(out["epoch"]),
    ]) == 0
    again = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert again.get("already_committed") is True


def test_jobs_cli_optimize_reclusters_and_vacuums(tmp_path, ray_session, capsys):
    """optimize = same-fan-out fenced rewrite with cluster keys: files come
    out sorted, row groups prune, state is unchanged, old epochs vacuumed."""
    import json

    import numpy as np

    from arlas_proc_ray.cdc.snapshot import (
        SnapshotStore,
        row_group_pruning_stats,
    )
    from arlas_proc_ray.jobs import main

    log = str(tmp_path / "log")
    snap = str(tmp_path / "snap")
    assert main(["synthesize", "--out", log, "--events", "3000"]) == 0
    assert main([
        "replay", "--events", log, "--snapshot", snap,
        "--epoch", "1", "--partitions", "4",
    ]) == 0
    assert main(["verify", "--snapshot", snap]) == 0
    before = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    assert main([
        "optimize", "--snapshot", snap, "--cluster-by", "path",
        "--row-group-rows", "64", "--vacuum-keep", "1",
    ]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["partitions"] == 4 and out["rows"] == before["rows"]
    assert out["vacuumed_epochs"] == [1]

    store = SnapshotStore(snap)
    e = store.latest_committed_epoch()
    files = []
    for p in range(4):
        t = store.read_partition_resolved(e, p)
        files.append(store.part_data_path(e, p))
        if t is not None and t.num_rows >= 2:
            paths = np.asarray(t.column("path").to_pylist(), dtype=object)
            assert (paths[:-1] <= paths[1:]).all()
    some = store.read_partition_resolved(e, 0).column("path")[0].as_py()
    rg = row_group_pruning_stats(files, [("path", "==", some)])
    assert rg["rows_matching"] < rg["rows_total"]


def test_repartition_rejects_committed_epoch(tmp_path, ray_session):
    """Rewriting an already-committed epoch's summary would publish a
    fan-out its data was never routed with — must raise."""
    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=8))
    eng.apply_epoch(_ep(0, 1500), 1)
    eng.apply_epoch(_ep(1500, 3000), 2)
    with pytest.raises(ValueError, match="already committed"):
        eng.repartition_snapshot(4, epoch=1)
    with pytest.raises(ValueError, match="already committed"):
        eng.repartition_snapshot(4, epoch=2)
    eng.repartition_snapshot(4)  # next epoch: fine
    assert eng.store.latest_committed_epoch() == 3


def test_optimize_preserves_codec_by_default(tmp_path, ray_session, capsys):
    import json

    import pyarrow.parquet as pq

    from arlas_proc_ray.cdc.snapshot import SnapshotStore
    from arlas_proc_ray.jobs import main

    log = str(tmp_path / "log")
    snap = str(tmp_path / "snap")
    assert main(["synthesize", "--out", log, "--events", "1000"]) == 0
    assert main([
        "replay", "--events", log, "--snapshot", snap,
        "--epoch", "1", "--partitions", "4",
    ]) == 0
    assert main([
        "optimize", "--snapshot", snap, "--compression", "zstd",
    ]) == 0
    # recluster-only run: codec must STAY zstd, not silently revert
    assert main(["optimize", "--snapshot", snap, "--cluster-by", "path"]) == 0
    capsys.readouterr()
    store = SnapshotStore(snap)
    e = store.latest_committed_epoch()
    p0 = store.part_data_path(store.epoch_index(e)[0].epoch, 0)
    assert pq.ParquetFile(p0).metadata.row_group(0).column(0).compression == "ZSTD"
