"""Engine point lookup (cdc/engine.py:lookup): parity with final_state,
partition pruning (only routed files opened, bloom-proven misses not
even those), no metadata file read per lookup (the epoch index is
cached), epoch time travel by number and by ref, byte-exact keys."""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from arlas_proc_ray.cdc import (
    CdcEngine,
    ChangelogConfig,
    generate_changelog_tables,
)
from arlas_proc_ray.cdc.events import CANONICAL_EVENT_SCHEMA, FINAL_STATE_SCHEMA
from arlas_proc_ray.model import DataModel

CFG = ChangelogConfig(num_events=5_000, num_keys=400, seed=9)
DM = DataModel(num_partitions=16)


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("snap"))
    eng = CdcEngine(d, DM)
    mid = CFG.num_events // 2
    eng.apply_epoch(rd.from_arrow(generate_changelog_tables(CFG, 0, mid)), epoch=0)
    eng.apply_epoch(
        rd.from_arrow(generate_changelog_tables(CFG, mid, CFG.num_events)), epoch=1
    )
    return eng


def test_lookup_matches_final_state(engine):
    state = engine.final_state().to_pandas()
    some = list(
        state[["repo", "path"]].iloc[::37].itertuples(index=False, name=None)
    )
    got = (
        engine.lookup(some)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    exp = (
        state.merge(
            pd.DataFrame(some, columns=["repo", "path"]), on=["repo", "path"]
        )
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp)


def test_lookup_missing_and_empty(engine):
    assert engine.lookup([]).num_rows == 0
    assert engine.lookup([("no-such-repo", "no-such-path")]).num_rows == 0


def test_lookup_prunes_partitions(engine, monkeypatch):
    state = engine.final_state().to_pandas()
    one = [tuple(state[["repo", "path"]].iloc[0])]
    opened = []
    orig, orig_segment = engine.store.read_partition, engine.store._segment_rows
    # a segment's row group belongs to one partition
    owner = {s.place(): p for p, m in enumerate(engine.store.epoch_index(1))
             for s in m.chain}

    def spy(e, p):
        opened.append(p)
        return orig(e, p)

    def spy_segment(seg, columns=None):
        opened.append(owner[seg.place()])
        return orig_segment(seg, columns)

    monkeypatch.setattr(engine.store, "read_partition", spy)
    monkeypatch.setattr(engine.store, "_segment_rows", spy_segment)
    got = engine.lookup(one)
    assert got.num_rows == 1
    assert len(set(opened)) == 1  # exactly one partition's files touched


def test_lookup_reads_no_metadata_file(engine, monkeypatch):
    """A lookup opens the partition files its keys route to and no
    commit summary or manifest: the fan-out, the source map and the
    blooms come from the epoch index, which stays cached between
    lookups."""
    state = engine.final_state().to_pandas()
    keys = list(state[["repo", "path"]].iloc[::7].itertuples(index=False,
                                                            name=None))
    reads, loads, opened = [], [], []
    summary, load = engine.store.read_epoch_summary, engine.store._load_index
    partition = engine.store.read_partition
    monkeypatch.setattr(engine.store, "read_epoch_summary",
                        lambda e: reads.append(e) or summary(e))
    monkeypatch.setattr(engine.store, "_load_index",
                        lambda e: loads.append(e) or load(e))
    monkeypatch.setattr(engine.store, "read_partition",
                        lambda e, p: opened.append(p) or partition(e, p))
    assert engine.lookup(keys).num_rows == len(keys)
    assert engine.lookup(keys).num_rows == len(keys)
    assert reads == [] and len(loads) <= 1 and len(opened) > 1


def test_lookup_time_travel_epoch(engine):
    state0 = engine.final_state(epoch=0).to_pandas()
    keys = list(
        state0[["repo", "path"]].iloc[:5].itertuples(index=False, name=None)
    )
    got = engine.lookup(keys, epoch=0).to_pandas()
    exp = state0.merge(
        pd.DataFrame(keys, columns=["repo", "path"]), on=["repo", "path"]
    )
    assert sorted(got["last_lsn"]) == sorted(exp["last_lsn"])


def test_lookup_by_ref_equals_lookup_by_epoch(engine):
    state0 = engine.final_state(epoch=0).to_pandas()
    keys = list(
        state0[["repo", "path"]].iloc[::50].itertuples(index=False, name=None)
    )
    engine.store.tag("first", epoch=0)
    try:
        assert engine.lookup(keys, epoch="first").equals(
            engine.lookup(keys, epoch=0)
        )
    finally:
        engine.store.delete_ref("first")


def test_lookup_many_keys_across_partitions(engine):
    state = engine.final_state()
    some = list(
        state.select(["repo", "path"]).to_pandas().iloc[::5]
        .itertuples(index=False, name=None)
    )
    missing = [("no-such-repo", f"missing-{i}.py") for i in range(5)]
    got = engine.lookup(some + missing)
    assert got.schema.equals(FINAL_STATE_SCHEMA)
    want = state.to_pandas().merge(
        pd.DataFrame(some, columns=["repo", "path"]), on=["repo", "path"]
    )
    pd.testing.assert_frame_equal(
        got.to_pandas().sort_values(["repo", "path"]).reset_index(drop=True),
        want.sort_values(["repo", "path"]).reset_index(drop=True),
    )


def test_lookup_duplicate_key_returns_one_row(engine):
    key = tuple(engine.final_state().select(["repo", "path"]).to_pylist()[0].values())
    assert engine.lookup([key, key, key]).num_rows == 1


def test_lookup_skips_file_when_bloom_proves_key_absent(engine, monkeypatch):
    key = ("no-such-repo", "no-such-path")
    opened = []
    orig = engine.store.read_partition

    def spy(e, p):
        opened.append(p)
        return orig(e, p)

    monkeypatch.setattr(engine.store, "read_partition", spy)
    assert engine.lookup([key]).num_rows == 0
    assert opened == []


def test_lookup_keys_differing_by_nul_byte(tmp_path):
    keys = [(r, p) for r in ("a", "a\x00") for p in ("a", "a\x00")]
    rows = [
        {
            "lsn": i + 1, "op": "INSERT", "repo": r, "path": p,
            "commit": f"c{i}", "language": "py", "content": f"body {i}",
            "content_size": 6, "schema_version": 2, "delivery_index": i,
        }
        for i, (r, p) in enumerate(keys)
    ]
    eng = CdcEngine(str(tmp_path / "nul"), DataModel(num_partitions=4))
    eng.apply_epoch(
        rd.from_arrow(pa.Table.from_pylist(rows, schema=CANONICAL_EVENT_SCHEMA)),
        epoch=1,
    )
    for i, key in enumerate(keys):
        got = eng.lookup([key]).to_pylist()
        assert [(g["repo"], g["path"], g["content"]) for g in got] == [
            (*key, f"body {i}")
        ]
    assert eng.lookup(keys).num_rows == 4
