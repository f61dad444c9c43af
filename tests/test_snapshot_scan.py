"""Zone-map + watermark-pruned snapshot scans (cdc/snapshot.py).

Pins: per-partition [min, max] zone maps are collected at write time,
from the writer's row-group statistics (tests/test_epoch_index.py pins
that they prune as the Arrow ``min_max`` ones did); plan_scan prunes
partitions from the EPOCH INDEX ONLY (predicate zone-map overlap,
changed-since-LSN watermark, empty partitions); scan() returns a Ray
Dataset whose rows equal a full read + row filter, read in process for
small plans and through ``read_parquet`` above ``SMALL_SCAN_BYTES``,
with the same rows and schema on both paths; a column without bounds
(a string over ``_STATS_MAX_BYTES``) never prunes (conservative); delta
epochs resolve source files through the metadata chain.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from ray.data.dataset import MaterializedDataset

from arlas_proc_ray.cdc.snapshot import (
    _STATS_MAX_BYTES,
    SnapshotStore,
    _stats_may_match,
    _zone_maps,
)
from arlas_proc_ray.functions.hashing import sha256_hex


def _part_table(part: int, lsn_base: int) -> pa.Table:
    """100 rows; v ∈ [part*100, part*100+99]; last_lsn ∈ [lsn_base, +99]."""
    v = list(range(part * 100, part * 100 + 100))
    keys = [f"k{part:02d}-{i:03d}" for i in range(100)]
    return pa.table(
        {
            "key": pa.array(keys, pa.string()),
            "v": pa.array(v, pa.int64()),
            "last_lsn": pa.array(
                [lsn_base + i for i in range(100)], pa.int64()
            ),
            "content_sha256": pa.array(
                sha256_hex(pa.chunked_array([pa.array(keys)])), pa.string()
            ),
        }
    )


@pytest.fixture()
def store(tmp_path):
    s = SnapshotStore(str(tmp_path / "snap"))
    # parts 0..3: v ranges [0,99] [100,199] [200,299] [300,399];
    # fences (manifest last_lsn) 99, 199, 299, 399.
    for p in range(4):
        s.write_partition(0, p, _part_table(p, p * 100))
    s.commit_epoch(0, 4)
    return s


def test_zone_maps_written(store):
    m = store.read_manifest(0, 2)
    assert m.col_stats["v"] == [200, 299]
    assert m.col_stats["last_lsn"] == [200, 299]
    assert m.col_stats["key"] == ["k02-000", "k02-099"]
    # content_sha256 is a 64-char string — exactly at the cap, kept
    assert "content_sha256" in m.col_stats


def test_plan_scan_predicate_prunes(store):
    plan = store.plan_scan(predicate=[("v", ">=", 250)])
    assert plan["pruned_stats"] == 2  # parts 0,1 (max 99, 199)
    assert len(plan["files"]) == 2
    plan = store.plan_scan(predicate=[("v", "==", 150)])
    assert plan["pruned_stats"] == 3 and len(plan["files"]) == 1
    plan = store.plan_scan(
        predicate=[("v", ">=", 150), ("v", "<", 180)]
    )
    assert len(plan["files"]) == 1
    # string zone map prune
    plan = store.plan_scan(predicate=[("key", "<", "k01-000")])
    assert len(plan["files"]) == 1


def test_scan_rows_match_full_filter(store):
    got = (
        store.scan(predicate=[("v", ">=", 250)], columns=["key", "v"])
        .to_pandas()
        .sort_values("v")
        .reset_index(drop=True)
    )
    full = store.read_state(0).to_pandas()
    want = (
        full.loc[full["v"] >= 250, ["key", "v"]]
        .sort_values("v")
        .reset_index(drop=True)
    )
    assert got.equals(want)
    assert len(got) == 150  # residual filter inside surviving partitions


def test_scan_empty_result_typed(store):
    ds = store.scan(predicate=[("v", ">", 10_000)], columns=["key", "v"])
    assert ds.count() == 0
    assert [f.name for f in ds.schema().base_schema] == ["key", "v"]


def test_changed_since_lsn_prunes(store):
    plan = store.plan_scan(changed_since_lsn=199)
    assert plan["pruned_lsn"] == 2  # fences 99 and 199 are ≤ 199
    assert len(plan["files"]) == 2
    # watermark fence uses applied last_lsn, strictly-greater survives
    plan = store.plan_scan(changed_since_lsn=198)
    assert plan["pruned_lsn"] == 1


def test_changed_rows_only(store):
    ds = store.scan(changed_since_lsn=250, changed_rows_only=True)
    df = ds.to_pandas()
    assert (df["last_lsn"] > 250).all()
    assert len(df) == 149  # lsns 251..399
    with pytest.raises(ValueError):
        store.scan(changed_rows_only=True)


def _long_key(part: int, lsn_base: int) -> pa.Table:
    """``_part_table`` with one key longer than ``_STATS_MAX_BYTES``: the
    writer keeps no statistics for ``key``, so its zone map has none."""
    t = _part_table(part, lsn_base)
    keys = t.column("key").to_pylist()
    keys[0] += "x" * (_STATS_MAX_BYTES + 1)
    return t.set_column(0, "key", pa.array(keys, pa.string()))


def test_legacy_manifest_never_prunes(store):
    """A partition without bounds for a column never prunes on it."""
    store.write_partition(1, 3, _long_key(3, 300))
    store.commit_epoch(1, 4, sources={0: 0, 1: 0, 2: 0})
    assert "key" not in store.epoch_index(1)[3].col_stats
    plan = store.plan_scan(predicate=[("key", ">", "k99")])
    assert plan["pruned_stats"] == 3
    assert len(plan["files"]) == 1  # part 3 kept: no stats → may match
    assert store.scan(predicate=[("key", ">", "k99")]).count() == 0


def test_empty_partition_pruned(tmp_path):
    s = SnapshotStore(str(tmp_path / "snap2"))
    s.write_partition(0, 0, _part_table(0, 0))
    s.write_partition(0, 1, _part_table(1, 100).slice(0, 0))
    s.commit_epoch(0, 2)
    plan = s.plan_scan()
    assert plan["pruned_empty"] == 1 and len(plan["files"]) == 1


def test_delta_epoch_scan_resolves_sources(store):
    # epoch 1 rewrites only part 0 (new v range, higher lsns); the other
    # three partitions are served through the epoch-0 files.
    t = _part_table(0, 400)
    t = t.set_column(1, "v", pa.array(range(1000, 1100), pa.int64()))
    store.write_partition(1, 0, t, last_lsn=499)
    store.commit_epoch(1, 4, sources={1: 0, 2: 0, 3: 0})
    plan = store.plan_scan(predicate=[("v", ">=", 1000)])
    assert len(plan["files"]) == 1
    assert "epoch=1" in plan["files"][0]
    # unchanged partitions pruned by the watermark even across the chain
    plan = store.plan_scan(changed_since_lsn=399)
    assert len(plan["files"]) == 1
    # epoch 1 REPLACED part 0 (v now ≥ 1000): v<200 matches only part 1
    got = store.scan(predicate=[("v", "<", 200)]).to_pandas()
    assert len(got) == 100 and got["v"].min() == 100 and got["v"].max() == 199
    assert list(got.columns) == ["key", "v", "last_lsn", "content_sha256"]


def test_stats_may_match_ops():
    st = {"v": [10, 20], "s": ["b", "d"]}
    assert not _stats_may_match(st, [("v", "==", 9)])
    assert _stats_may_match(st, [("v", "==", 10)])
    assert not _stats_may_match(st, [("v", "<", 10)])
    assert _stats_may_match(st, [("v", "<", 11)])
    assert not _stats_may_match(st, [("v", "<=", 9)])
    assert not _stats_may_match(st, [("v", ">", 20)])
    assert not _stats_may_match(st, [("v", ">=", 21)])
    assert _stats_may_match(st, [("v", "!=", 15)])
    assert not _stats_may_match({"v": [7, 7]}, [("v", "!=", 7)])
    assert not _stats_may_match(st, [("s", ">", "d")])
    assert _stats_may_match(st, [("missing", "==", 1)])
    with pytest.raises(ValueError):
        _stats_may_match(st, [("v", "~", 1)])


def _written_zone_maps(t: pa.Table, row_group_rows=None) -> dict:
    """``_zone_maps`` of ``t`` as the store's writer would derive them."""
    import io

    written = []
    pq.write_table(t, io.BytesIO(), row_group_size=row_group_rows,
                   metadata_collector=written)
    return _zone_maps(written[0], t.schema)


def test_column_stats_skips_long_and_null():
    t = pa.table(
        {
            "long": pa.array(["x" * 100, "y"]),
            "nul": pa.array([None, None], pa.int64()),
            "f": pa.array([1.5, float("nan")]),
            "ok": pa.array([3, 1], pa.int64()),
            "bin": pa.array([b"a", b"b"], pa.binary()),
        }
    )
    st = _written_zone_maps(t)
    assert "long" not in st and "nul" not in st and "bin" not in st
    assert st["ok"] == [1, 3]
    # NaN participates in Arrow min_max; bounds with NaN are dropped
    assert "f" not in st or st["f"][0] == st["f"][0]


def test_bloom_point_lookup_prunes(tmp_path):
    """Zone maps cannot prune == on hash-partitioned keys (every partition
    spans the domain); blooms prove absence. FP keeps, never false-prunes."""
    s = SnapshotStore(str(tmp_path / "snapb"), bloom_cols=["key"])
    for p in range(4):
        s.write_partition(0, p, _part_table(p, p * 100))
    s.commit_epoch(0, 4)
    m = s.read_manifest(0, 2)
    assert set(m.blooms) == {"key"}
    assert m.blooms["key"]["m"] >= 8192 and m.blooms["key"]["k"] == 3

    # a key that exists in exactly one partition: ≥1 file survives and the
    # scan returns exactly that row
    plan = s.plan_scan(predicate=[("key", "==", "k02-017")])
    assert 1 <= len(plan["files"]) <= 2  # FP may keep an extra partition
    got = s.scan(predicate=[("key", "==", "k02-017")]).to_pandas()
    assert len(got) == 1 and got.loc[0, "v"] == 217

    # a key INSIDE part 2's zone-map range but absent: zone maps keep the
    # partition, only the bloom can prove absence (deterministic hashing,
    # FP ≈ 1e-9 at 8192 bits / 100 keys / k=3)
    plan = s.plan_scan(predicate=[("key", "==", "k02-050z")])
    assert plan["pruned_stats"] == 3  # the other parts: range miss
    assert plan["pruned_bloom"] == 1  # part 2: bloom miss
    assert s.scan(predicate=[("key", "==", "k02-050z")]).count() == 0

    # non-== clauses and non-bloomed columns never consult blooms
    plan = s.plan_scan(predicate=[("key", ">=", "k00-000")])
    assert plan["pruned_bloom"] == 0


def test_bloom_absent_without_bloom_cols(store):
    """Stores built without bloom_cols (default) write no blooms and the
    == path falls back to zone maps only — old manifests keep working."""
    m = store.read_manifest(0, 0)
    assert m.blooms == {}
    plan = store.plan_scan(predicate=[("key", "==", "k00-005")])
    assert plan["pruned_bloom"] == 0


def test_engine_store_has_key_blooms(tmp_path):
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.model import DataModel

    eng = CdcEngine(str(tmp_path / "es"), DataModel(num_partitions=4))
    assert eng.store.bloom_cols == ["repo", "path"]


def test_table_stats_manifest_only(store, monkeypatch):
    """table_stats aggregates row counts / watermark / zone bounds from
    manifests alone — proven by making every data read explode."""
    monkeypatch.setattr(
        SnapshotStore,
        "read_partition",
        lambda self, e, p: (_ for _ in ()).throw(AssertionError("data read!")),
    )
    s = store.table_stats()
    assert s["row_count"] == 400
    assert s["partitions"] == 4 and s["nonempty_partitions"] == 4
    assert s["applied_lsn"] == 399
    assert s["columns"]["v"] == [0, 399]
    assert s["columns"]["last_lsn"] == [0, 399]
    assert s["columns"]["key"] == ["k00-000", "k03-099"]


def test_table_stats_partial_zone_maps_omit_column(store):
    """A column missing bounds in ANY non-empty partition reports no
    global bounds (absence = unknown, a subset bound would be wrong)."""
    # epoch 1: rewrite partition 2 with a key the writer keeps no bounds for
    for p in range(4):
        store.write_partition(
            1, p, (_long_key if p == 2 else _part_table)(p, p * 100))
    store.commit_epoch(1, 4)
    s = store.table_stats()
    assert s["row_count"] == 400
    assert "key" not in s["columns"] and s["columns"]["v"] == [0, 399]


def test_table_stats_delta_epoch_resolves_sources(store):
    """Stats follow the delta-epoch source map to each partition's
    current manifest."""
    t = _part_table(0, 5000)
    store.write_partition(1, 0, t)
    store.commit_epoch(1, 4, sources={p: 0 for p in range(1, 4)})
    s = store.table_stats()
    assert s["row_count"] == 400
    assert s["applied_lsn"] == 5099


def test_gc_orphans(tmp_path):
    """Crashed uncommitted epochs and stale tmp files are removed; young
    (possibly in-flight) epochs and committed history are untouched."""
    import time

    s = SnapshotStore(str(tmp_path / "snap"))
    for p in range(2):
        s.write_partition(1, p, _part_table(p, p * 100))
    s.commit_epoch(1, 2)

    # crashed epoch 2: partition file and a torn write, no commit marker
    s.write_partition(2, 0, _part_table(0, 900))
    with open(os.path.join(s.epoch_dir(2), "torn.parquet.tmp"), "w") as f:
        f.write("x")
    # stray tmp litter
    tmp_file = os.path.join(s.epoch_dir(1), "junk.parquet.tmp")
    with open(tmp_file, "w") as f:
        f.write("x")
    # age everything
    old = time.time() - 7200
    for base, _, files in os.walk(s.root):
        for f in files:
            os.utime(os.path.join(base, f), (old, old))

    # a YOUNG uncommitted epoch 3 stays (in-flight writer)
    s.write_partition(3, 0, _part_table(0, 950))

    dry = s.gc_orphans(min_age_s=3600, dry_run=True)
    assert "epoch=2" in dry["removed"] and dry["dry_run"]
    assert os.path.isdir(s.epoch_dir(2))  # dry run deleted nothing

    res = s.gc_orphans(min_age_s=3600)
    assert "epoch=2" in res["removed"]
    # the dry run reports exactly what the real one removes
    assert (dry["removed"], dry["bytes"]) == (res["removed"], res["bytes"])
    assert any(r.endswith("junk.parquet.tmp") for r in res["removed"])
    assert "epoch=3" in res["kept_inflight"]
    assert not os.path.isdir(s.epoch_dir(2))
    assert os.path.isdir(s.epoch_dir(3))
    assert not os.path.exists(tmp_file)
    # committed state untouched and readable
    assert s.read_partition(1, 0).num_rows == 100
    assert s.latest_committed_epoch() == 1


def test_gc_cli(tmp_path, capsys):
    import json as _json
    import time

    from arlas_proc_ray.jobs import main

    s = SnapshotStore(str(tmp_path / "snap"))
    s.write_partition(1, 0, _part_table(0, 0))
    s.commit_epoch(1, 1)
    s.write_partition(5, 0, _part_table(0, 10))
    old = time.time() - 7200
    for base, _, files in os.walk(s.root):
        for f in files:
            os.utime(os.path.join(base, f), (old, old))
    assert main(["gc", "--snapshot", s.root]) == 0
    out = [_json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert "epoch=5" in out[-1]["removed"]


def test_store_sql_and_time_travel(tmp_path):
    """DuckDB SQL over the resolved cut; refs select older epochs."""
    s = SnapshotStore(str(tmp_path / "snap"))
    for p in range(2):
        s.write_partition(1, p, _part_table(p, p * 100))
    s.commit_epoch(1, 2)
    s.tag("v1", 1)
    # epoch 2 rewrites partition 0 only (delta)
    s.write_partition(2, 0, _part_table(0, 900))
    s.commit_epoch(2, 2, sources={1: 1})

    t = s.sql("SELECT count(*) AS n, max(last_lsn) AS m FROM snapshot")
    assert t.to_pylist() == [{"n": 200, "m": 999}]
    t1 = s.sql("SELECT max(last_lsn) AS m FROM snapshot", epoch="v1")
    assert t1.to_pylist() == [{"m": 199}]
    grouped = s.sql(
        "SELECT substr(key, 1, 3) AS pfx, count(*) AS n FROM snapshot "
        "GROUP BY pfx ORDER BY pfx"
    )
    assert grouped.num_rows == 2


def test_jobs_sql_cli(tmp_path, capsys):
    import json as _json

    from arlas_proc_ray.jobs import main

    s = SnapshotStore(str(tmp_path / "snap"))
    s.write_partition(1, 0, _part_table(0, 0))
    s.commit_epoch(1, 1)
    assert main([
        "sql", "--snapshot", s.root,
        "--query", "SELECT count(*) AS n FROM snapshot",
    ]) == 0
    out = [_json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["data"] == [{"n": 100}]


def _scan_both_paths(store, monkeypatch, **kw):
    """``scan(**kw)`` read in process (the default for these small
    stores) and through ``ray.data.read_parquet`` (threshold 0)."""
    from arlas_proc_ray.cdc import snapshot

    eager = store.scan(**kw)
    with monkeypatch.context() as m:
        m.setattr(snapshot, "SMALL_SCAN_BYTES", 0)
        lazy = store.scan(**kw)
    plan = store.plan_scan(
        epoch=kw.get("epoch"), predicate=kw.get("predicate"),
        changed_since_lsn=kw.get("changed_since_lsn"),
    )
    # the in-process paths hand over one materialized block of a known
    # size, which the staged exchange's one-task rule reads
    assert eager._logical_plan.dag.name == "FromBlocks"
    assert isinstance(eager, MaterializedDataset)
    assert isinstance(eager.size_bytes(), int)
    assert lazy._logical_plan.dag.name == (
        "ReadParquet" if plan["files"] else "FromBlocks"
    )
    return eager, lazy


def _sorted_rows(ds) -> pa.Table:
    t = pa.concat_tables(
        [ds.schema().base_schema.empty_table(),
         *ds.iter_batches(batch_format="pyarrow")]
    )
    return t.sort_by([(c, "ascending") for c in t.column_names])


@pytest.mark.parametrize("kw", [
    {"predicate": [("v", "==", 150)]},
    {"predicate": [("key", "==", "k02-017")]},
    {"predicate": [("v", ">=", 150), ("v", "<", 320)]},
    {"predicate": [("v", "!=", 150)]},
    {"predicate": [("v", ">=", 250)], "columns": ["key"]},
    {"predicate": [("v", "<", 180)], "columns": ["v", "key"]},
    {"changed_since_lsn": 250, "changed_rows_only": True},
    {"changed_since_lsn": 250, "changed_rows_only": True, "columns": ["key"]},
    {"predicate": [("v", ">", 10_000)]},
    {"predicate": [("v", ">", 10_000)], "columns": ["key", "v"]},
    {},
], ids=["eq-int", "eq-str", "range", "ne", "unprojected-pred",
        "reordered-cols", "changed-rows", "changed-rows-cols", "empty-plan",
        "empty-plan-cols", "full"])
def test_scan_paths_agree(store, monkeypatch, kw):
    eager, lazy = _scan_both_paths(store, monkeypatch, **kw)
    assert eager.schema().base_schema.equals(lazy.schema().base_schema)
    got, want = _sorted_rows(eager), _sorted_rows(lazy)
    assert got.equals(want)
    assert got.column_names == (kw.get("columns") or
                                ["key", "v", "last_lsn", "content_sha256"])


def test_scan_paths_agree_on_delta_epoch(store, monkeypatch):
    t = _part_table(0, 400)
    t = t.set_column(1, "v", pa.array(range(1000, 1100), pa.int64()))
    store.write_partition(1, 0, t, last_lsn=499)
    store.commit_epoch(1, 4, sources={1: 0, 2: 0, 3: 0})
    for kw in ({"predicate": [("v", "<", 200)]}, {"changed_since_lsn": 350},
               {"epoch": 0, "predicate": [("v", "<", 200)]}):
        eager, lazy = _scan_both_paths(store, monkeypatch, **kw)
        assert _sorted_rows(eager).equals(_sorted_rows(lazy))
    assert _sorted_rows(store.scan(predicate=[("v", "<", 200)])).num_rows == 100


def test_scan_over_threshold_stays_lazy(store, monkeypatch):
    from arlas_proc_ray.cdc import snapshot

    # the threshold is inclusive and counts bytes on disk, not files
    [one] = store.plan_scan(predicate=[("v", "==", 150)])["files"]
    monkeypatch.setattr(snapshot, "SMALL_SCAN_BYTES", os.path.getsize(one))
    assert store.scan(predicate=[("v", "==", 150)])._logical_plan.dag.name == "FromBlocks"
    assert store.scan()._logical_plan.dag.name == "ReadParquet"


def test_long_string_predicate_keeps_its_row(tmp_path, monkeypatch):
    """A string value over the Parquet writer's 4 KiB statistics limit
    leaves no bound the writer would store as "": ``write_partition``
    writes no statistics for that column, so the ``read_parquet`` scan's
    pushed-down ``==`` filter returns the row and footer pruning counts
    its row group as matching."""
    from arlas_proc_ray.cdc import snapshot
    from arlas_proc_ray.cdc.snapshot import row_group_pruning_stats

    big = "y" * 5000
    store = SnapshotStore(str(tmp_path / "snap"), row_group_rows=1)
    content = pa.array([big, "b"], pa.string())
    store.write_partition(0, 0, pa.table({
        "key": ["a", "b"],
        "content": content,
        "last_lsn": pa.array([1, 2], pa.int64()),
        "content_sha256": sha256_hex(pa.chunked_array([content])),
    }))
    store.commit_epoch(0, 1)
    monkeypatch.setattr(snapshot, "SMALL_SCAN_BYTES", 0)
    pred = [("content", "==", big)]
    ds = store.scan(predicate=pred)
    assert ds._logical_plan.dag.name == "ReadParquet"
    assert _sorted_rows(ds).column("key").to_pylist() == ["a"]
    stats = row_group_pruning_stats([store.part_data_path(0, 0)], pred)
    assert stats["row_groups_total"] == 2
    assert stats["row_groups_matching"] == 2  # no bounds: nothing prunes
    # the other columns keep their statistics
    md = pq.ParquetFile(store.part_data_path(0, 0)).metadata
    assert md.row_group(0).column(2).statistics.has_min_max
