"""Delta epochs (metadata-chained compaction) + snapshot vacuum."""

import os

import pandas as pd
import pyarrow as pa
import ray.data as rd

from arlas_proc_ray.cdc import (
    ChangelogConfig,
    CdcEngine,
    generate_changelog_tables,
    oracle_final_state,
)
from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1
from arlas_proc_ray.model import DataModel

CFG = ChangelogConfig(num_events=4_000, num_keys=300, seed=21)
DM = DataModel(num_partitions=8)


def _one_key_event(lsn: int) -> pa.Table:
    return pa.Table.from_pylist(
        [
            {
                "lsn": lsn,
                "op": "UPDATE",
                "repo": "org9/solo",
                "path": "only.py",
                "commit": f"c{lsn}",
                "lang": "py",
                "content": f"content at {lsn}",
                "schema_version": 1,
                "delivery_index": lsn,
            }
        ],
        schema=EVENT_SCHEMA_V1,
    )


def test_delta_epoch_rewrites_only_touched_partitions(tmp_path):
    snap = str(tmp_path / "s")
    engine = CdcEngine(snap, DM)
    engine.apply_epoch(rd.from_arrow(generate_changelog_tables(CFG)), epoch=1)

    # epoch 2: one event for one key → exactly ONE partition file written
    engine.apply_epoch(rd.from_arrow([_one_key_event(10_000)]), epoch=2, delta=True)
    files_e2 = [
        f for f in os.listdir(engine.store.epoch_dir(2)) if f.endswith(".parquet")
    ]
    assert len(files_e2) == 1

    # resolution chain: untouched partitions point at epoch 1
    sources = engine.store.resolve_sources(2)
    assert sorted(sources) == list(range(DM.num_partitions))
    assert sum(1 for e in sources.values() if e == 2) == 1
    assert sum(1 for e in sources.values() if e == 1) == DM.num_partitions - 1

    # final state = full replay oracle + the extra key
    exp = oracle_final_state(
        generate_changelog_tables(CFG) + [_one_key_event(10_000)]
    ).to_pandas()
    got = (
        engine.final_state()
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)[list(exp.columns)]
    )
    pd.testing.assert_frame_equal(got, exp)

    # a further (non-delta) epoch reads through the chain correctly
    engine.apply_epoch(rd.from_arrow([_one_key_event(10_001)]), epoch=3)
    final = engine.final_state().to_pandas()
    row = final[final.path.eq("only.py")].iloc[0]
    assert row["last_lsn"] == 10_001 and row["content"] == "content at 10001"


def test_vacuum_respects_delta_chain(tmp_path):
    snap = str(tmp_path / "s")
    engine = CdcEngine(snap, DM)
    engine.apply_epoch(rd.from_arrow(generate_changelog_tables(CFG)), epoch=1)
    engine.apply_epoch(rd.from_arrow([_one_key_event(10_000)]), epoch=2, delta=True)
    engine.apply_epoch(rd.from_arrow([_one_key_event(10_001)]), epoch=3, delta=True)

    # latest commit (3) references epochs {1 (untouched parts), 3 (touched)}
    # and possibly 2; vacuum(keep_last=1) must keep everything referenced
    state_before = engine.final_state()
    deleted = engine.store.vacuum(keep_last=1)
    state_after = engine.final_state()
    assert state_before.equals(state_after)
    for e in deleted:
        assert not os.path.isdir(engine.store.epoch_dir(e))

    # full-compaction epoch 4 consolidates; now 1..3 become collectable
    engine.apply_epoch(rd.from_arrow([_one_key_event(10_002)]), epoch=4)
    deleted = engine.store.vacuum(keep_last=1)
    assert set(deleted) >= {1}
    assert engine.store.latest_committed_epoch() == 4
    final = engine.final_state().to_pandas()
    assert final[final.path.eq("only.py")].iloc[0]["last_lsn"] == 10_002


def test_delta_max_age_compaction_policy(tmp_path):
    """delta_max_age bounds how old a referenced partition file may be:
    stale references are refreshed (carried forward), so vacuum can
    reclaim ancient epochs while final state stays oracle-exact."""
    snap = str(tmp_path / "snap")
    engine = CdcEngine(snap, DM)
    engine.apply_epoch(rd.from_arrow(generate_changelog_tables(CFG)), 1)

    # epochs 2..6: single-key deltas with a 3-epoch age bound
    lsn = 10_000
    for e in range(2, 7):
        engine.apply_epoch(
            rd.from_arrow(_one_key_event(lsn)), e, delta=True, delta_max_age=3
        )
        lsn += 1

    # no source may point further back than epoch-3
    sources = engine.store.resolve_sources(6)
    assert all(e >= 6 - 3 for e in sources.values()), sources

    # vacuum keeping only the last commit now reclaims epochs 1-2
    deleted = engine.store.vacuum(keep_last=1)
    assert 1 in deleted and 2 in deleted

    exp = oracle_final_state(
        generate_changelog_tables(CFG)
        + [_one_key_event(i) for i in range(10_000, lsn)]
    ).to_pandas()
    got = (
        engine.final_state()
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)[list(exp.columns)]
    )
    pd.testing.assert_frame_equal(got, exp)


import pytest


@pytest.mark.parametrize("mode", ["staged", "two_level"])
def test_staged_delta_references_untouched_partitions(tmp_path, mode):
    """delta=True on the STAGED paths (one-level / two-level): a
    single-key epoch rewrites exactly one partition file; the rest are
    metadata references to epoch 1; state matches the Dataset delta path
    byte-for-byte."""
    snap = str(tmp_path / mode)
    engine = CdcEngine(snap, DM)
    kw = {"two_level": mode == "two_level"}
    engine.apply_epoch_staged(
        rd.from_arrow(generate_changelog_tables(CFG)), epoch=1, **kw
    )
    engine.apply_epoch_staged(
        rd.from_arrow([_one_key_event(10_000)]), epoch=2, delta=True, **kw
    )
    files_e2 = [
        f for f in os.listdir(engine.store.epoch_dir(2))
        if f.endswith(".parquet")
    ]
    assert len(files_e2) == 1
    srcs = engine.store.resolve_sources(2)
    assert sorted(srcs.values()).count(1) == DM.num_partitions - 1

    # reference: the Dataset delta path on a sibling store
    ref = CdcEngine(str(tmp_path / "ref"), DM)
    ref.apply_epoch(rd.from_arrow(generate_changelog_tables(CFG)), epoch=1)
    ref.apply_epoch(
        rd.from_arrow([_one_key_event(10_000)]), epoch=2, delta=True
    )
    got = engine.final_state().to_pandas()
    exp = ref.final_state().to_pandas()
    pd.testing.assert_frame_equal(got, exp)


def test_staged_delta_duplicate_epoch_is_all_references(tmp_path):
    """Re-delivering an already-applied window as a new delta epoch
    (at-least-once upstream): every event is below the fences, so NO
    partition is rewritten — the epoch is pure metadata."""
    snap = str(tmp_path / "s")
    engine = CdcEngine(snap, DM)
    tables = generate_changelog_tables(CFG)
    engine.apply_epoch_staged(rd.from_arrow(tables), epoch=1)
    before = engine.final_state().to_pandas()
    engine.apply_epoch_staged(rd.from_arrow(tables), epoch=2, delta=True)
    files_e2 = [
        f for f in os.listdir(engine.store.epoch_dir(2))
        if f.endswith(".parquet")
    ]
    assert files_e2 == []
    srcs = engine.store.resolve_sources(2)
    assert all(e == 1 for e in srcs.values())
    pd.testing.assert_frame_equal(engine.final_state().to_pandas(), before)
