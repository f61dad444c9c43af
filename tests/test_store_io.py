"""The snapshot store's partition read and write path.

Reads go straight to ``pq.ParquetFile.read`` and must return the same
table as ``pq.read_table``. Writes build the bloom bitmap with one
boolean scatter, and fsync the Parquet file before the rename that
makes it visible, since the manifest written after it certifies the
bytes.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from arlas_proc_ray.cdc import snapshot
from arlas_proc_ray.cdc.events import ChangelogConfig, generate_changelog_tables
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.cdc.snapshot import SnapshotStore


@pytest.fixture
def state():
    cfg = ChangelogConfig(num_events=2000, num_keys=300, seed=51)
    return oracle_final_state(generate_changelog_tables(cfg))


def test_read_partition_equals_read_table(tmp_path, state):
    store = SnapshotStore(str(tmp_path), bloom_cols=["repo", "path"])
    store.write_partition(1, 0, state)
    store.write_partition(1, 1, state.slice(0, 0))
    for part in (0, 1):
        path = store.part_data_path(1, part)
        got, exp = store.read_partition(1, part), pq.read_table(path)
        assert got.equals(exp, check_metadata=True)
        assert got.schema.metadata == exp.schema.metadata
    assert store.read_partition(1, 2) is None


def _bloom_bitmap_reference(col, bits: int) -> np.ndarray:
    """The per-position ``bitwise_or.at`` construction the bloom used to
    have; the packed scatter must produce the same bytes."""
    bm = np.zeros(bits // 8, dtype=np.uint8)
    for pos in snapshot._bloom_positions(col, bits, snapshot._BLOOM_HASHES):
        pos = pos[pos >= 0]
        np.bitwise_or.at(bm, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
    return bm


@pytest.mark.parametrize("n,kind", [(1, "str"), (700, "str"), (5000, "int"),
                                    (20_000, "str"), (3000, "nulls")])
def test_bloom_bitmap_equals_reference(n, kind):
    import base64

    rng = np.random.default_rng(n)
    vals = rng.integers(0, 10 * n, n)
    if kind == "int":
        col = pa.chunked_array([pa.array(vals[: n // 2]), pa.array(vals[n // 2 :])])
    else:
        strs = [f"k{v}" for v in vals]
        if kind == "nulls":
            strs[::3] = [None] * len(strs[::3])
        col = pa.chunked_array([pa.array(strs, pa.string())])
    bloom = snapshot._bloom_build(col, n)
    got = np.frombuffer(base64.b64decode(bloom["b64"]), dtype=np.uint8)
    np.testing.assert_array_equal(got, _bloom_bitmap_reference(col, bloom["m"]))


def test_partition_file_is_fsynced_before_it_is_visible(tmp_path, state,
                                                        monkeypatch):
    store = SnapshotStore(str(tmp_path))
    data_path = store.part_data_path(1, 0)
    synced = []
    fsync = os.fsync

    def recording(fd):
        # the data file must still be invisible when its bytes are synced
        synced.append((os.fstat(fd).st_size, os.path.exists(data_path)))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording)
    store.write_partition(1, 0, state)
    size = os.path.getsize(data_path)
    assert (size, False) in synced
    assert len(synced) == 2  # the data file, then the manifest


def _may_contain_reference(bloom: dict, value) -> bool:
    """The per-value probe ``plan_scan`` used to run for every manifest:
    hash the value, then test its bits one by one."""
    import base64

    bm = base64.b64decode(bloom["b64"])
    for pos in snapshot._bloom_positions(pa.array([value]), bloom["m"], bloom["k"]):
        p = int(pos[0])
        if p < 0:
            return True
        if not (bm[p >> 3] >> (p & 7)) & 1:
            return False
    return True


def test_bloom_probes_prune_like_the_per_value_probe():
    """Hashing each probe once per plan changes no pruning decision."""
    blooms = [
        snapshot._bloom_build(pa.chunked_array([pa.array(
            [f"k{v}" for v in range(p, 3000, 7)])]), 3000 // 7)
        for p in range(7)
    ] + [snapshot._bloom_build(pa.chunked_array([pa.array(range(5000))]), 5000)]
    probes = [f"k{v}" for v in range(0, 4000, 13)] + [None, 17, 4999, 6001]
    for value in probes:
        pruner = snapshot._BloomProbes([("c", "==", value)])
        for bloom in blooms:
            assert pruner({"c": bloom}) == (not _may_contain_reference(bloom, value))
    # non-== clauses and other columns never prune
    assert not snapshot._BloomProbes([("c", ">", "zzz")])({"c": blooms[0]})
    assert not snapshot._BloomProbes([("d", "==", "k0")])({"c": blooms[0]})


def _commit(store: SnapshotStore, epoch: int, table: pa.Table) -> None:
    store.write_partition(epoch, 0, table)
    store.commit_epoch(epoch, 1)


def test_latest_committed_epoch_skips_uncommitted_and_staged(tmp_path, state):
    store = SnapshotStore(str(tmp_path))
    for e in (1, 2, 3):
        _commit(store, e, state)
    store.write_partition(5, 0, state)  # crash leftover: no marker
    store.write_partition(4, 0, state)  # staged cut: marker withheld
    open(os.path.join(store.epoch_dir(4), "_STAGED"), "w").close()
    assert store.latest_committed_epoch() == 3


def test_latest_committed_epoch_stats_one_marker(tmp_path, monkeypatch):
    store = SnapshotStore(str(tmp_path))
    for e in range(1, 201):
        os.makedirs(store.epoch_dir(e))
        open(store.commit_marker_path(e), "w").close()
    stats = []
    exists = os.path.exists

    def spy(path):
        stats.append(path)
        return exists(path)

    monkeypatch.setattr(os.path, "exists", spy)
    assert store.latest_committed_epoch() == 200
    assert stats == [store.commit_marker_path(200)]
