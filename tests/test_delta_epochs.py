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
    staged,
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

    # epoch 2: one event for one key → exactly ONE file written: the
    # delta group file holding that partition's segment
    engine.apply_epoch(rd.from_arrow([_one_key_event(10_000)]), epoch=2, delta=True)
    files_e2 = [
        f for f in os.listdir(engine.store.epoch_dir(2)) if f.endswith(".parquet")
    ]
    assert len(files_e2) == 1 and files_e2[0].startswith("delta-2-")

    # resolution chain: untouched partitions point at epoch 1, the touched
    # one keeps its epoch-1 base under an epoch-2 segment
    index = engine.store.epoch_index(2)
    sources = [m.written_in() for m in index]
    assert len(sources) == DM.num_partitions
    assert sources.count(2) == 1
    assert sources.count(1) == DM.num_partitions - 1
    assert [m.epoch for m in index] == [1] * DM.num_partitions

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

    # a full epoch carries the untouched partitions forward but only adds
    # a segment to the touched one; the compaction (``jobs optimize``'s
    # same-fan-out rewrite, epoch 5) folds it, and 1..4 become collectable
    engine.apply_epoch(rd.from_arrow([_one_key_event(10_002)]), epoch=4)
    assert 1 not in engine.store.vacuum(keep_last=1)
    engine.repartition_snapshot(DM.num_partitions)
    deleted = engine.store.vacuum(keep_last=1)
    assert set(deleted) >= {1}
    assert engine.store.latest_committed_epoch() == 5
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
    sources = [m.epoch for m in engine.store.epoch_index(6)]
    assert all(e >= 6 - 3 for e in sources), sources

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
def test_staged_delta_references_untouched_partitions(
    tmp_path, monkeypatch, mode
):
    """delta=True on the staged exchanges (one-level / two-level): a
    single-key epoch rewrites exactly one partition file; the rest are
    metadata references to epoch 1; state matches the oracle
    byte-for-byte."""
    snap = str(tmp_path / mode)
    engine = CdcEngine(snap, DM)
    if mode == "two_level":  # every epoch past the object threshold
        monkeypatch.setattr(staged, "TWO_LEVEL_OBJECTS", -1)
    engine.apply_epoch_staged(
        rd.from_arrow(generate_changelog_tables(CFG)), epoch=1
    )
    engine.apply_epoch_staged(
        rd.from_arrow([_one_key_event(10_000)]), epoch=2, delta=True
    )
    files_e2 = [
        f for f in os.listdir(engine.store.epoch_dir(2))
        if f.endswith(".parquet")
    ]
    assert len(files_e2) == 1
    srcs = [m.written_in() for m in engine.store.epoch_index(2)]
    assert srcs.count(1) == DM.num_partitions - 1

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


def test_staged_delta_duplicate_epoch_is_all_references(tmp_path):
    """Re-delivering an already-applied window as a new delta epoch
    (at-least-once upstream): every event is below the fences, so NO
    partition is rewritten — the epoch is pure metadata — through both
    ``apply_epoch_staged`` and ``apply_epoch``."""
    tables = generate_changelog_tables(CFG)
    for name in ("apply_epoch_staged", "apply_epoch"):
        engine = CdcEngine(str(tmp_path / name), DM)
        apply = getattr(engine, name)
        apply(rd.from_arrow(tables), epoch=1)
        before = engine.final_state().to_pandas()
        apply(rd.from_arrow(tables), epoch=2, delta=True)
        files_e2 = [
            f for f in os.listdir(engine.store.epoch_dir(2))
            if f.endswith(".parquet")
        ]
        assert files_e2 == [], name
        srcs = [m.epoch for m in engine.store.epoch_index(2)]
        assert all(e == 1 for e in srcs), name
        pd.testing.assert_frame_equal(
            engine.final_state().to_pandas(), before
        )


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    """One store through each kind of epoch: 1 full, 2 a one-key delta,
    3 a rollback to 1, 4 a repartition to half the fan-out."""
    engine = CdcEngine(str(tmp_path_factory.mktemp("layouts")), DM)
    engine.apply_epoch(rd.from_arrow(generate_changelog_tables(CFG)), epoch=1)
    engine.apply_epoch(rd.from_arrow([_one_key_event(10_000)]), epoch=2,
                       delta=True)
    engine.rollback(1)
    engine.repartition_snapshot(DM.num_partitions // 2)
    assert engine.store.latest_committed_epoch() == 4
    return engine.store


def _resolved_files(store, epoch: int) -> list:
    """Each partition's files at ``epoch``: its base file by the commit
    marker's source map, the copy of the layout kept for readers older
    than the index, and the places of its delta segments."""
    sources = store.read_epoch_summary(epoch)["sources"]
    return [(store.part_data_path(int(sources[str(p)]), p),
             [(store.segment_path(s), s.row_group) for s in m.chain])
            for p, m in enumerate(store.epoch_index(epoch))]


@pytest.mark.parametrize("base, target, changed", [
    (1, 2, 1),        # a delta epoch rewrote one partition
    (2, 3, 1),        # the rollback points that partition back at 1
    (2, 2, 0),        # an epoch against itself
    (3, 4, None),     # a repartition changes the fan-out
], ids=["delta", "rollback", "equal", "repartition"])
def test_changed_partitions_are_the_partitions_whose_file_differs(
        layouts, base, target, changed):
    old, new = _resolved_files(layouts, base), _resolved_files(layouts, target)
    oracle = (None if len(old) != len(new)
              else [p for p, (a, b) in enumerate(zip(old, new)) if a != b])
    got = layouts.changed_partitions(base, target)
    assert got == oracle
    assert (got if got is None else len(got)) == changed
