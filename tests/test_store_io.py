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
