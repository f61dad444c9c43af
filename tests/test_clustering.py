"""Sort-key clustering of snapshot partition files.

``SnapshotStore(cluster_by=[...], row_group_rows=N)`` sorts each
partition's rows by the cluster columns before the Parquet write and
bounds row-group size, so the predicate ``scan()`` pushes down prunes
ROW GROUPS inside surviving files — the intra-file complement of the
manifest-level zone-map/bloom partition pruning. Content must be
byte-identical to an unclustered store (order-free LWW semantics,
manifests, rollups); only the physical layout changes.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from arlas_proc_ray.cdc.snapshot import SnapshotStore, row_group_pruning_stats


def _state_table(n: int, seed: int = 7) -> pa.Table:
    rng = np.random.default_rng(seed)
    ts = rng.permutation(n).astype(np.int64)  # shuffled cluster column
    return pa.table(
        {
            "repo": pa.array([f"r{i % 17}" for i in range(n)]),
            "path": pa.array([f"p{i}" for i in range(n)]),
            "ts": pa.array(ts),
            "content_sha256": pa.array([f"{i:064x}" for i in range(n)]),
            "last_lsn": pa.array(np.arange(n, dtype=np.int64)),
        }
    )


def test_clustered_write_sorts_rows_and_preserves_content(tmp_path):
    t = _state_table(1000)
    plain = SnapshotStore(str(tmp_path / "plain"))
    clus = SnapshotStore(
        str(tmp_path / "clus"), cluster_by=["ts"], row_group_rows=100
    )
    mp = plain.write_partition(1, 0, t, last_lsn=999)
    mc = clus.write_partition(1, 0, t, last_lsn=999)
    plain.commit_epoch(1, 1)
    clus.commit_epoch(1, 1)

    # identical logical content: same manifest rollup, zone maps, counts
    assert mc.sha256_rollup == mp.sha256_rollup
    assert mc.row_count == mp.row_count
    assert mc.col_stats == mp.col_stats
    assert mc.last_lsn == mp.last_lsn

    got = clus.read_partition(1, 0)
    ts = got.column("ts").to_numpy()
    assert (np.diff(ts) >= 0).all(), "clustered file must be sorted by ts"
    # same rows as the input, order aside
    a = t.to_pandas().sort_values("path").reset_index(drop=True)
    b = got.to_pandas().sort_values("path").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_row_group_pruning_clustered_vs_not(tmp_path):
    t = _state_table(2000)
    plain = SnapshotStore(str(tmp_path / "plain"), row_group_rows=100)
    clus = SnapshotStore(
        str(tmp_path / "clus"), cluster_by=["ts"], row_group_rows=100
    )
    plain.write_partition(1, 0, t, last_lsn=1999)
    clus.write_partition(1, 0, t, last_lsn=1999)
    plain.commit_epoch(1, 1)
    clus.commit_epoch(1, 1)

    pred = [("ts", ">=", 500), ("ts", "<", 600)]  # 5% of the domain
    sp = row_group_pruning_stats([plain.part_data_path(1, 0)], pred)
    sc = row_group_pruning_stats([clus.part_data_path(1, 0)], pred)
    assert sp["row_groups_total"] == sc["row_groups_total"] == 20
    # shuffled data: every 100-row group spans ~the whole domain → no pruning
    assert sp["row_groups_matching"] == 20
    # clustered: the 100-row window covers ≤ 2 adjacent sorted groups
    assert sc["row_groups_matching"] <= 2

    # the pushed-down scan returns identical rows from both layouts
    a = (
        plain.scan(predicate=pred)
        .to_pandas()
        .sort_values("path")
        .reset_index(drop=True)
    )
    b = (
        clus.scan(predicate=pred)
        .to_pandas()
        .sort_values("path")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    assert len(a) == 100

    # clustered file parquet metadata really has 100-row groups
    md = pq.ParquetFile(clus.part_data_path(1, 0)).metadata
    assert md.row_group(0).num_rows == 100


def test_engine_cluster_by_equals_unclustered_state(tmp_path, ray_session):
    import ray.data as rd

    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.events import (
        ChangelogConfig,
        changelog_dataset,
        generate_changelog_tables,
    )
    from arlas_proc_ray.cdc.oracle import oracle_final_state
    from arlas_proc_ray.model import DataModel

    cfg = ChangelogConfig(num_events=4000, num_keys=500, seed=13)
    dm = DataModel(num_partitions=8)
    mid = cfg.num_events // 2

    plain = CdcEngine(str(tmp_path / "plain"), dm)
    clus = CdcEngine(
        str(tmp_path / "clus"), dm, cluster_by=["path"], row_group_rows=256
    )
    for eng in (plain, clus):
        eng.apply_epoch(changelog_dataset(cfg, lo=0, hi=mid), 1)
        eng.apply_epoch(changelog_dataset(cfg, lo=mid, hi=cfg.num_events), 2)

    a = plain.final_state().to_pandas()
    b = clus.final_state().to_pandas()
    pd.testing.assert_frame_equal(a, b)

    oracle = oracle_final_state(generate_changelog_tables(cfg)).to_pandas()
    pd.testing.assert_frame_equal(b, oracle)

    # per-partition files are sorted by path; a selective path predicate
    # prunes row groups inside the surviving partitions
    e = clus.store.latest_committed_epoch()
    src = [m.epoch for m in clus.store.epoch_index(e)]
    files = [
        clus.store.part_data_path(src[p], p)
        for p in range(dm.num_partitions)
    ]
    some_path = b["path"].iloc[len(b) // 2]
    stats = row_group_pruning_stats(files, [("path", "==", some_path)])
    assert stats["rows_matching"] < stats["rows_total"]


def test_compression_codec_roundtrip_and_rewrite(tmp_path, ray_session):
    """zstd store: identical logical content in a zstd-coded file;
    jobs optimize --compression rewrites an existing snapshot's codec."""
    from arlas_proc_ray.jobs import main

    t = _state_table(2000)
    # repeat content so codecs have something to bite on
    t = t.set_column(
        t.schema.get_field_index("content_sha256"),
        "content_sha256",
        pa.array([f"{i % 7:064x}" for i in range(2000)]),
    )
    snappy = SnapshotStore(str(tmp_path / "sn"))
    zstd = SnapshotStore(str(tmp_path / "zs"), compression="zstd")
    ms = snappy.write_partition(1, 0, t, last_lsn=1999)
    mz = zstd.write_partition(1, 0, t, last_lsn=1999)
    assert mz.sha256_rollup == ms.sha256_rollup
    f_sn = snappy.part_data_path(1, 0)
    f_zs = zstd.part_data_path(1, 0)
    assert pq.read_table(f_zs).equals(pq.read_table(f_sn))
    assert pq.ParquetFile(f_zs).metadata.row_group(0).column(0).compression == "ZSTD"

    # CLI: rewrite an engine snapshot to zstd via optimize
    log = str(tmp_path / "log")
    snap = str(tmp_path / "snap")
    assert main(["synthesize", "--out", log, "--events", "1500"]) == 0
    assert main([
        "replay", "--events", log, "--snapshot", snap,
        "--epoch", "1", "--partitions", "4",
    ]) == 0
    assert main([
        "optimize", "--snapshot", snap, "--compression", "zstd",
    ]) == 0
    store = SnapshotStore(snap)
    e = store.latest_committed_epoch()
    src = [m.epoch for m in store.epoch_index(e)]
    p0 = store.part_data_path(src[0], 0)
    assert pq.ParquetFile(p0).metadata.row_group(0).column(0).compression == "ZSTD"


def _xy_table(n: int, seed: int = 3) -> pa.Table:
    """Two independent uniform dims (x, y) — the 2-d pruning fixture."""
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "repo": pa.array([f"r{i % 17}" for i in range(n)]),
            "path": pa.array([f"p{i}" for i in range(n)]),
            "x": pa.array(rng.integers(0, 1000, n).astype(np.int64)),
            "y": pa.array(rng.integers(0, 1000, n).astype(np.int64)),
            "content_sha256": pa.array([f"{i:064x}" for i in range(n)]),
            "last_lsn": pa.array(np.arange(n, dtype=np.int64)),
        }
    )


def test_zorder_write_preserves_content(tmp_path):
    t = _xy_table(2000)
    plain = SnapshotStore(str(tmp_path / "plain"))
    zs = SnapshotStore(
        str(tmp_path / "z"), cluster_zorder=["x", "y"], row_group_rows=100
    )
    mp = plain.write_partition(1, 0, t, last_lsn=1999)
    mz = zs.write_partition(1, 0, t, last_lsn=1999)
    plain.commit_epoch(1, 1)
    zs.commit_epoch(1, 1)
    assert mz.sha256_rollup == mp.sha256_rollup
    assert mz.col_stats == mp.col_stats
    a = t.to_pandas().sort_values("path").reset_index(drop=True)
    b = zs.read_partition(1, 0).to_pandas().sort_values("path").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_zorder_prunes_on_both_dims(tmp_path):
    """Lexicographic cluster_by=["x","y"] prunes x-ranges but NOT
    y-ranges (y varies freely within each x run); z-order prunes BOTH."""
    t = _xy_table(20_000)
    lex = SnapshotStore(
        str(tmp_path / "lex"), cluster_by=["x", "y"], row_group_rows=500
    )
    zs = SnapshotStore(
        str(tmp_path / "z"), cluster_zorder=["x", "y"], row_group_rows=500
    )
    lex.write_partition(1, 0, t, last_lsn=0)
    zs.write_partition(1, 0, t, last_lsn=0)
    lex.commit_epoch(1, 1)
    zs.commit_epoch(1, 1)

    pred_x = [("x", ">=", 100), ("x", "<", 200)]  # 10% on the LEADING dim
    pred_y = [("y", ">=", 100), ("y", "<", 200)]  # 10% on the SECOND dim

    lex_x = row_group_pruning_stats([lex.part_data_path(1, 0)], pred_x)
    lex_y = row_group_pruning_stats([lex.part_data_path(1, 0)], pred_y)
    z_x = row_group_pruning_stats([zs.part_data_path(1, 0)], pred_x)
    z_y = row_group_pruning_stats([zs.part_data_path(1, 0)], pred_y)

    total = lex_x["row_groups_total"]
    # lexicographic: great on x, USELESS on y (every group spans y)
    assert lex_x["row_groups_matching"] <= total // 4
    assert lex_y["row_groups_matching"] == total
    # z-order: selective on BOTH dims
    assert z_x["row_groups_matching"] <= total // 2
    assert z_y["row_groups_matching"] <= total // 2


def test_zorder_engine_roundtrip(tmp_path):
    """A z-ordered engine store replays to the same final state."""
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.events import ChangelogConfig, changelog_dataset
    from arlas_proc_ray.model import DataModel

    cfg = ChangelogConfig(num_events=2000, seed=5)
    a = CdcEngine(str(tmp_path / "a"), DataModel(num_partitions=4))
    z = CdcEngine(
        str(tmp_path / "z"), DataModel(num_partitions=4),
        cluster_zorder=["repo", "path"],
    )
    a.apply_epoch(changelog_dataset(cfg), 1)
    z.apply_epoch(changelog_dataset(cfg), 1)
    pd.testing.assert_frame_equal(
        a.final_state().to_pandas().sort_values(["repo", "path"]).reset_index(drop=True),
        z.final_state().to_pandas().sort_values(["repo", "path"]).reset_index(drop=True),
    )


def test_cluster_by_and_zorder_mutually_exclusive(tmp_path):
    import pytest

    with pytest.raises(ValueError, match="not both"):
        SnapshotStore(
            str(tmp_path / "bad"), cluster_by=["x"], cluster_zorder=["y"]
        )


def test_jobs_optimize_zorder(tmp_path, capsys):
    """`jobs optimize --zorder x,y` re-clusters the store z-ordered."""
    import json

    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.events import ChangelogConfig, changelog_dataset
    from arlas_proc_ray.jobs import main
    from arlas_proc_ray.model import DataModel

    snap = str(tmp_path / "snap")
    eng = CdcEngine(snap, DataModel(num_partitions=4))
    eng.apply_epoch(changelog_dataset(ChangelogConfig(num_events=2000, seed=9)), 1)
    before = (
        eng.final_state().to_pandas()
        .sort_values(["repo", "path"]).reset_index(drop=True)
    )
    assert main([
        "optimize", "--snapshot", snap, "--zorder", "repo,path",
        "--row-group-rows", "128",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["zordered_by"] == "repo,path"
    eng2 = CdcEngine(snap, DataModel(num_partitions=4))
    after = (
        eng2.final_state().to_pandas()
        .sort_values(["repo", "path"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(before, after)
